package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// numericGrad estimates dLoss/dtheta for every parameter and input entry by
// central differences, where lossFn must be a deterministic pure function of
// the current parameter values and input.
func numericGradParam(p *Param, lossFn func() float64, eps float64) []float64 {
	out := make([]float64, len(p.Value.Data))
	for i := range p.Value.Data {
		orig := p.Value.Data[i]
		p.Value.Data[i] = orig + float32(eps)
		lp := lossFn()
		p.Value.Data[i] = orig - float32(eps)
		lm := lossFn()
		p.Value.Data[i] = orig
		out[i] = (lp - lm) / (2 * eps)
	}
	return out
}

func relErr(a, b float64) float64 {
	denom := math.Abs(a) + math.Abs(b)
	if denom < 1e-8 {
		return 0
	}
	return math.Abs(a-b) / denom
}

// checkModelGrads trains-forward the model once with the given loss,
// backprops, then verifies every parameter gradient against central
// differences. The model must be deterministic (no dropout).
func checkModelGrads(t *testing.T, model *Sequential, x *tensor.Matrix,
	loss func(logits *tensor.Matrix) (float64, *tensor.Matrix), tol float64) {
	t.Helper()

	// BatchNorm running stats change across forward passes; freeze them by
	// saving/restoring so the numeric lossFn is pure.
	type bnState struct {
		bn       *BatchNorm
		mean, va []float32
	}
	var states []bnState
	for _, l := range model.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			states = append(states, bnState{
				bn,
				append([]float32(nil), bn.RunningMean.Data...),
				append([]float32(nil), bn.RunningVar.Data...),
			})
		}
	}
	restore := func() {
		for _, s := range states {
			copy(s.bn.RunningMean.Data, s.mean)
			copy(s.bn.RunningVar.Data, s.va)
		}
	}
	var ts TrainScratch
	lossFn := func() float64 {
		defer restore()
		logits := model.Forward(x, &ts)
		l, _ := loss(logits)
		return l
	}

	model.ZeroGrads()
	logits := model.Forward(x, &ts)
	_, grad := loss(logits)
	model.Backward(grad, &ts)
	restore()

	for pi, p := range model.Params() {
		numeric := numericGradParam(p, lossFn, 1e-3)
		for i, ng := range numeric {
			ag := float64(p.Grad.Data[i])
			if math.Abs(ng) < 5e-4 && math.Abs(ag) < 5e-4 {
				continue // both ~zero: float32 noise dominates
			}
			if math.Abs(ag-ng) < 3e-3 {
				continue // absolute floor: ReLU-kink crossings and f32 noise
			}
			if e := relErr(ag, ng); e > tol {
				t.Fatalf("param %d (%s) entry %d: analytic %g vs numeric %g (rel err %g)",
					pi, p.Name, i, ag, ng, e)
			}
		}
	}
}

func TestDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := NewSequential(4, NewDense(4, 3, rng))
	x := randInput(rng, 6, 4)
	labels := []int{0, 1, 2, 0, 1, 2}
	checkModelGrads(t, model, x, func(l *tensor.Matrix) (float64, *tensor.Matrix) {
		return CrossEntropy(l, labels)
	}, 0.05)
}

func TestMLPReLUGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	model := NewSequential(5,
		NewDense(5, 8, rng),
		NewReLU(),
		NewDense(8, 4, rng),
	)
	x := randInput(rng, 7, 5)
	labels := []int{0, 1, 2, 3, 0, 1, 2}
	checkModelGrads(t, model, x, func(l *tensor.Matrix) (float64, *tensor.Matrix) {
		return CrossEntropy(l, labels)
	}, 0.05)
}

func TestBatchNormGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	model := NewSequential(4,
		NewDense(4, 6, rng),
		NewBatchNorm(6),
		NewReLU(),
		NewDense(6, 3, rng),
	)
	x := randInput(rng, 8, 4)
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1}
	checkModelGrads(t, model, x, func(l *tensor.Matrix) (float64, *tensor.Matrix) {
		return CrossEntropy(l, labels)
	}, 0.08)
}

func TestUSPLossQualityGradCheck(t *testing.T) {
	// eta = 0 isolates the quality (soft-target CE) term.
	rng := rand.New(rand.NewSource(4))
	model := NewSequential(4, NewDense(4, 5, rng), NewReLU(), NewDense(5, 3, rng))
	x := randInput(rng, 6, 4)
	targets := randSoftTargets(rng, 6, 3)
	checkModelGrads(t, model, x, func(l *tensor.Matrix) (float64, *tensor.Matrix) {
		r := USPLoss(l, targets, nil, 0)
		return r.Loss, r.Grad
	}, 0.05)
}

func TestUSPLossWeightedGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	model := NewSequential(3, NewDense(3, 4, rng))
	x := randInput(rng, 5, 3)
	targets := randSoftTargets(rng, 5, 4)
	weights := []float32{0.5, 2, 1, 3, 0.25}
	checkModelGrads(t, model, x, func(l *tensor.Matrix) (float64, *tensor.Matrix) {
		r := USPLoss(l, targets, weights, 0)
		return r.Loss, r.Grad
	}, 0.05)
}

func TestUSPLossBalanceGradCheck(t *testing.T) {
	// Full loss with a nonzero eta. The balance term is piecewise (top-k
	// selection), so we use well-separated logits to stay off selection
	// boundaries where the numeric gradient is undefined.
	rng := rand.New(rand.NewSource(6))
	model := NewSequential(3, NewDense(3, 4, rng))
	x := randInput(rng, 8, 3)
	for i := range x.Data {
		x.Data[i] *= 3 // spread inputs to separate probabilities
	}
	targets := randSoftTargets(rng, 8, 4)
	checkModelGrads(t, model, x, func(l *tensor.Matrix) (float64, *tensor.Matrix) {
		r := USPLoss(l, targets, nil, 2.5)
		return r.Loss, r.Grad
	}, 0.08)
}

func randInput(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

func randSoftTargets(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		var sum float32
		for j := range row {
			row[j] = float32(rng.Float64())
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
	}
	return m
}
