package nn

import (
	"math"

	"repro/internal/tensor"
	"repro/internal/vecmath"
)

// AddWindowBalance is the paper's computational-cost term S(R) (Eqs. 12–13)
// over the R rows of probs: with window size win = max(1, R/m), the win
// largest probabilities of each bin column are summed and negated,
// normalized by R so the term is batch-size invariant. It adds the gradient
// of η·S with respect to the logits to grad (R×m) — −1/R at the selected
// entries, chained through the softmax Jacobian — and returns S.
func AddWindowBalance(probs, grad *tensor.Matrix, eta float64) float64 {
	rows, m := probs.Rows, probs.Cols
	win := rows / m
	if win < 1 {
		win = 1
	}
	invR := float32(1.0 / float64(rows))
	dP := tensor.New(rows, m)
	col := make([]float32, rows)
	var winSum float64
	for j := 0; j < m; j++ {
		for i := 0; i < rows; i++ {
			col[i] = probs.At(i, j)
		}
		tau := vecmath.SelectKthLargest(col, win)
		// Select entries > tau, then == tau until win entries total, in
		// row order for determinism under ties.
		remaining := win
		for i := 0; i < rows && remaining > 0; i++ {
			if col[i] > tau {
				winSum += float64(col[i])
				dP.Set(i, j, -invR)
				remaining--
			}
		}
		for i := 0; i < rows && remaining > 0; i++ {
			if col[i] == tau {
				winSum += float64(col[i])
				dP.Set(i, j, -invR)
				remaining--
			}
		}
	}
	addSoftmaxChain(grad, probs, dP, eta)
	return -winSum / float64(rows)
}

// addSoftmaxChain adds η·dZ to grad, where dZ_i = P_i ⊙ (dP_i − <dP_i, P_i>)
// chains a gradient dP with respect to the probabilities through each row's
// softmax Jacobian.
func addSoftmaxChain(grad, probs, dP *tensor.Matrix, eta float64) {
	scale := float32(eta)
	for i := 0; i < probs.Rows; i++ {
		prow, dprow, grow := probs.Row(i), dP.Row(i), grad.Row(i)
		var dot float32
		for j := range prow {
			dot += dprow[j] * prow[j]
		}
		for j := range grow {
			grow[j] += scale * prow[j] * (dprow[j] - dot)
		}
	}
}

// EntropyBalance is the alternative balance regularizer ablated against the
// paper's top-window term (Eqs. 12–13): it maximizes the entropy of the
// batch-average assignment distribution p̄ = mean_i P_i, the standard
// balance device in deep clustering. Returned is the loss term
// log(m) − H(p̄) (zero iff perfectly balanced) and its gradient with
// respect to the probabilities, dL/dP_ij = (log p̄_j + 1)/B.
//
// Compared with the window term, entropy balance penalizes *soft* imbalance
// (it looks at probability mass, not at who would win the argmax), which
// makes it smoother but blind to confident-but-clumped assignments — the
// ablation_balance experiment quantifies the difference.
func EntropyBalance(probs *tensor.Matrix) (float64, *tensor.Matrix) {
	b, m := probs.Rows, probs.Cols
	mean := make([]float64, m)
	for i := 0; i < b; i++ {
		row := probs.Row(i)
		for j, v := range row {
			mean[j] += float64(v)
		}
	}
	invB := 1 / float64(b)
	var entropy float64
	for j := range mean {
		mean[j] *= invB
		if mean[j] > 0 {
			entropy -= mean[j] * math.Log(mean[j])
		}
	}
	loss := math.Log(float64(m)) - entropy

	dP := tensor.New(b, m)
	for j := range mean {
		g := float32(0)
		if mean[j] > 0 {
			g = float32((math.Log(mean[j]) + 1) * invB)
		}
		for i := 0; i < b; i++ {
			dP.Set(i, j, g)
		}
	}
	return loss, dP
}

// USPLossEntropy is USPLoss with the entropy balance term substituted for
// the top-window term. The quality cost is identical.
func USPLossEntropy(logits, targets *tensor.Matrix, weights []float32, eta float64) LossResult {
	// Quality part: reuse USPLoss with eta = 0.
	res := USPLoss(logits, targets, weights, 0)
	if eta == 0 {
		return res
	}
	probs := logits.Clone()
	SoftmaxRows(probs)
	balance, dP := EntropyBalance(probs)
	addSoftmaxChain(res.Grad, probs, dP, eta)
	res.Balance = balance
	res.Loss = res.Quality + eta*balance
	return res
}
