package nn

import (
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
