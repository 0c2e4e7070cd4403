package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/vecmath"
)

// trainedMLP returns a small MLP whose batch-norm running statistics have
// been moved off their initial values by a few training steps, so the
// inference kernels are exercised against non-trivial state.
func trainedMLP(t *testing.T, inDim, outDim int) *Sequential {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	model := NewMLP(inDim, []int{9}, outDim, 0.1, rng)
	opt := NewAdam(1e-3)
	x := tensor.New(32, inDim)
	targets := tensor.New(32, outDim)
	for step := 0; step < 5; step++ {
		for i := range x.Data {
			x.Data[i] = float32(rng.NormFloat64())
		}
		for i := 0; i < targets.Rows; i++ {
			row := targets.Row(i)
			for j := range row {
				row[j] = 0
			}
			row[rng.Intn(outDim)] = 1
		}
		model.ZeroGrads()
		logits := model.Forward(x)
		res := USPLoss(logits, targets, nil, 1)
		model.Backward(res.Grad)
		opt.Step(model.Params())
	}
	return model
}

// referencePredict is an independent eval pass the inference kernels are
// pinned to: referenceLogits, then a row softmax with the max-subtraction
// trick and a float64 sum.
func referencePredict(t *testing.T, s *Sequential, x *tensor.Matrix) *tensor.Matrix {
	t.Helper()
	out := referenceLogits(t, s, x)
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxv))
			row[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range row {
			row[j] *= inv
		}
	}
	return out
}

// referenceLogits is the eval pass up to the softmax: one fresh matrix per
// layer, Dense as MatMul plus bias, BatchNorm column by column on the
// running statistics, ReLU as max(0, x), Dropout as the identity.
func referenceLogits(t *testing.T, s *Sequential, x *tensor.Matrix) *tensor.Matrix {
	t.Helper()
	for _, l := range s.Layers {
		switch ly := l.(type) {
		case *Dense:
			y := tensor.New(x.Rows, ly.W.Value.Cols)
			tensor.MatMul(y, x, ly.W.Value)
			tensor.AddRowVector(y, ly.B.Value.Data)
			x = y
		case *BatchNorm:
			y := tensor.New(x.Rows, x.Cols)
			for j := 0; j < x.Cols; j++ {
				mean := float64(ly.RunningMean.Data[j])
				invStd := 1 / math.Sqrt(float64(ly.RunningVar.Data[j])+ly.Eps)
				g, b := float64(ly.Gamma.Value.Data[j]), float64(ly.Beta.Value.Data[j])
				for i := 0; i < x.Rows; i++ {
					v := (float64(x.At(i, j)) - mean) * invStd
					y.Set(i, j, float32(v*g+b))
				}
			}
			x = y
		case *ReLU:
			y := tensor.New(x.Rows, x.Cols)
			for i, v := range x.Data {
				if v > 0 {
					y.Data[i] = v
				}
			}
			x = y
		case *Dropout:
		default:
			t.Fatalf("reference has no eval pass for %T", l)
		}
	}
	return x.Clone()
}

// TestPredictKernelsMatchReference pins PredictVecInto, every row of
// PredictBatchInto, and Predict bit for bit to referencePredict, on a
// trained MLP and a logistic model, with zero inputs and an all-zero row in
// the batch, at a small batch and at one large enough for the parallel
// MatMul.
func TestPredictKernelsMatchReference(t *testing.T) {
	const in, out = 11, 5
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct {
		name  string
		model *Sequential
		rows  int
	}{
		{"mlp", trainedMLP(t, in, out), 50},
		{"mlp-large", trainedMLP(t, in, out), 1100},
		{"logistic", NewLogistic(in, out, rand.New(rand.NewSource(5))), 50},
	} {
		x := randInput(rng, tc.rows, in)
		for i := 0; i < x.Rows; i += 7 {
			x.Set(i, i%in, 0) // exercise MatMul's zero-input skip
		}
		clear(x.Row(1))
		want := referencePredict(t, tc.model, x)

		var bsc BatchInferScratch
		batch := tc.model.PredictBatchInto(nil, x, &bsc)
		pred := tc.model.Predict(x)
		var sc InferScratch
		var vec []float32
		for i := 0; i < x.Rows; i++ {
			vec = tc.model.PredictVecInto(vec, x.Row(i), &sc)
			for j, w := range want.Row(i) {
				for _, f := range [...]struct {
					form string
					got  float32
				}{{"PredictVecInto", vec[j]}, {"PredictBatchInto", batch[i*out+j]}, {"Predict", pred.At(i, j)}} {
					if math.Float32bits(f.got) != math.Float32bits(w) {
						t.Fatalf("%s: %s row %d prob[%d] = %v, want %v (must be bit-identical)",
							tc.name, f.form, i, j, f.got, w)
					}
				}
			}
		}
	}
}

// probSumTol bounds |Σp − 1| for one distribution: each probability is a
// float32 exp scaled by a float32 reciprocal, a few ulps (2^-24 each) off,
// so a row of up to a few hundred bins stays far inside it.
const probSumTol = 1e-5

// TestProbabilityInvariants holds every inference form — PredictVecInto,
// each row of PredictBatchInto, and Predict — to what a distribution over
// bins must be, under whichever kernel set the process dispatched (CI runs
// both): each row sums to 1 within probSumTol, its argmax is the logits'
// argmax, and every probability is finite and in [0, 1], also at extreme
// finite logits (±1e30, through a constructed Dense), where an exp taken
// without subtracting the row maximum overflows.
func TestProbabilityInvariants(t *testing.T) {
	const in, out = 6, 7
	rng := rand.New(rand.NewSource(6))
	extreme := NewLogistic(in, out, rand.New(rand.NewSource(7)))
	for _, p := range extreme.Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] = float32(rng.Float64()*2-1) * 1e30
		}
	}
	for _, tc := range []struct {
		name  string
		model *Sequential
		scale float64
	}{
		{"mlp", trainedMLP(t, in, out), 1},
		{"mlp-wide-inputs", trainedMLP(t, in, out), 1e4},
		{"logistic", NewLogistic(in, out, rand.New(rand.NewSource(8))), 1},
		{"extreme-logits", extreme, 1},
	} {
		x := randInput(rng, 40, in)
		for i := range x.Data {
			x.Data[i] *= float32(tc.scale)
		}
		logits := referenceLogits(t, tc.model, x)
		var bsc BatchInferScratch
		batch := tc.model.PredictBatchInto(nil, x, &bsc)
		pred := tc.model.Predict(x)
		var sc InferScratch
		var vec []float32
		maxLogit := 0.0
		for i := 0; i < x.Rows; i++ {
			vec = tc.model.PredictVecInto(vec, x.Row(i), &sc)
			want := vecmath.ArgMax(logits.Row(i))
			for _, l := range logits.Row(i) {
				maxLogit = max(maxLogit, math.Abs(float64(l)))
			}
			for form, row := range map[string][]float32{
				"PredictVecInto": vec, "PredictBatchInto": batch[i*out : (i+1)*out], "Predict": pred.Row(i),
			} {
				var sum float64
				for j, p := range row {
					if !(p >= 0 && p <= 1) {
						t.Fatalf("%s: %s row %d prob[%d] = %v", tc.name, form, i, j, p)
					}
					sum += float64(p)
				}
				if math.Abs(sum-1) > probSumTol {
					t.Fatalf("%s: %s row %d sums to %v", tc.name, form, i, sum)
				}
				if got := vecmath.ArgMax(row); got != want {
					t.Fatalf("%s: %s row %d argmax %d, logits' argmax %d", tc.name, form, i, got, want)
				}
			}
		}
		if tc.name == "extreme-logits" && maxLogit < 1e29 {
			t.Fatalf("constructed Dense reached logits of only %g", maxLogit)
		}
	}
}

func TestPredictVecIntoAllocs(t *testing.T) {
	model := trainedMLP(t, 16, 8)
	var sc InferScratch
	v := make([]float32, 16)
	for i := range v {
		v[i] = float32(i) * 0.1
	}
	dst := make([]float32, 0, 8)
	dst = model.PredictVecInto(dst, v, &sc) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		dst = model.PredictVecInto(dst[:0], v, &sc)
	})
	if allocs != 0 {
		t.Fatalf("PredictVecInto allocates %v per run", allocs)
	}
}

func TestPredictBatchIntoAllocs(t *testing.T) {
	model := trainedMLP(t, 16, 8)
	x := randInput(rand.New(rand.NewSource(6)), 64, 16)
	var sc BatchInferScratch
	dst := model.PredictBatchInto(nil, x, &sc) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		dst = model.PredictBatchInto(dst, x, &sc)
	})
	if allocs != 0 {
		t.Fatalf("PredictBatchInto allocates %v per run", allocs)
	}
}
