package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestEntropyBalanceZeroWhenUniform(t *testing.T) {
	// Perfectly balanced soft assignments: p̄ uniform → loss 0.
	probs := tensor.FromSlice(4, 2, []float32{
		0.5, 0.5, 0.9, 0.1, 0.1, 0.9, 0.5, 0.5,
	})
	loss, _ := EntropyBalance(probs)
	if math.Abs(loss) > 1e-6 {
		t.Fatalf("balanced loss = %v", loss)
	}
	// Collapsed assignments: maximal loss log(m).
	collapsed := tensor.FromSlice(3, 2, []float32{1, 0, 1, 0, 1, 0})
	loss, _ = EntropyBalance(collapsed)
	if math.Abs(loss-math.Log(2)) > 1e-6 {
		t.Fatalf("collapsed loss = %v, want log 2", loss)
	}
}

func TestEntropyBalanceGradientDirection(t *testing.T) {
	// Gradient must push mass toward the under-used bin: for a collapsed
	// batch, d/dP of the loss is more negative for the empty column.
	probs := tensor.FromSlice(2, 2, []float32{0.9, 0.1, 0.8, 0.2})
	_, dP := EntropyBalance(probs)
	// Column 0 over-used: positive-ish gradient (decrease); column 1
	// under-used: smaller (more negative) gradient.
	if dP.At(0, 0) <= dP.At(0, 1) {
		t.Fatalf("gradient does not favor the under-used bin: %v vs %v",
			dP.At(0, 0), dP.At(0, 1))
	}
}

func TestUSPLossEntropyGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	model := NewSequential(3, NewDense(3, 4, rng))
	x := randInput(rng, 6, 3)
	targets := randSoftTargets(rng, 6, 4)
	checkModelGrads(t, model, x, func(l *tensor.Matrix) (float64, *tensor.Matrix) {
		r := USPLossEntropy(l, targets, nil, 3)
		return r.Loss, r.Grad
	}, 0.05)
}

func TestUSPLossEntropyEtaZeroMatchesQualityOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	logits := randInput(rng, 5, 3)
	targets := randSoftTargets(rng, 5, 3)
	a := USPLossEntropy(logits.Clone(), targets, nil, 0)
	b := USPLoss(logits.Clone(), targets, nil, 0)
	if math.Abs(a.Loss-b.Loss) > 1e-9 || !tensor.Equalish(a.Grad, b.Grad, 1e-7) {
		t.Fatal("eta=0 entropy variant must equal plain quality loss")
	}
}
