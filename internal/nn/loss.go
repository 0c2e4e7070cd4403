package nn

import "repro/internal/tensor"

// LossResult bundles the scalar loss terms and the gradient of the total
// loss with respect to the model's logits.
type LossResult struct {
	Loss    float64 // total = Quality + Eta·Balance
	Quality float64 // weighted soft-target cross-entropy (Eq. 10)
	Balance float64 // computational-cost term S(R) (Eq. 13), normalized by batch size
	Grad    *tensor.Matrix
}

// USPLoss computes the paper's combined unsupervised partitioning loss
// (Eq. 5) over a batch.
//
//   - logits: batch×m model outputs before softmax.
//   - targets: batch×m soft labels B_{k′}(p_i) — the per-point bin histogram
//     of its k′ nearest neighbors (Eq. 9). Each row must sum to 1.
//   - weights: optional per-point ensemble weights w_i (Eq. 14); nil means
//     uniform. The quality term is the weight-normalized mean of per-point
//     cross-entropies.
//   - eta: the balance parameter η.
//
// The balance term is AddWindowBalance's (Eqs. 12–13), added to the
// cross-entropy gradient.
func USPLoss(logits, targets *tensor.Matrix, weights []float32, eta float64) LossResult {
	b, m := logits.Rows, logits.Cols
	if targets.Rows != b || targets.Cols != m {
		panic("nn: USPLoss target shape mismatch")
	}
	if weights != nil && len(weights) != b {
		panic("nn: USPLoss weights length mismatch")
	}

	// Probabilities (softmax of logits), kept separate from the logits.
	probs := logits.Clone()
	SoftmaxRows(probs)

	// ---- Quality term: weighted soft-target cross-entropy. ----
	var wsum float64
	if weights == nil {
		wsum = float64(b)
	} else {
		for _, w := range weights {
			wsum += float64(w)
		}
		if wsum <= 0 {
			wsum = 1 // degenerate all-zero weights: avoid division by zero
		}
	}
	var quality float64
	logRow := make([]float64, m)
	for i := 0; i < b; i++ {
		LogSoftmaxRow(logRow, logits.Row(i))
		trow := targets.Row(i)
		var ce float64
		for j, t := range trow {
			if t != 0 {
				ce -= float64(t) * logRow[j]
			}
		}
		w := 1.0
		if weights != nil {
			w = float64(weights[i])
		}
		quality += w * ce
	}
	quality /= wsum

	// dL_quality/dlogits = w_i (P_i - T_i) / Σw  (softmax+CE fused gradient).
	grad := tensor.New(b, m)
	for i := 0; i < b; i++ {
		w := 1.0
		if weights != nil {
			w = float64(weights[i])
		}
		scale := float32(w / wsum)
		prow, trow, grow := probs.Row(i), targets.Row(i), grad.Row(i)
		for j := range grow {
			grow[j] = scale * (prow[j] - trow[j])
		}
	}

	// ---- Balance term (only when eta != 0). ----
	var balance float64
	if eta != 0 {
		balance = AddWindowBalance(probs, grad, eta)
	}

	return LossResult{
		Loss:    quality + eta*balance,
		Quality: quality,
		Balance: balance,
		Grad:    grad,
	}
}

// CrossEntropy computes mean hard-label cross-entropy over a batch of logits
// and its gradient with respect to the logits. It is the supervised loss
// used to train the Neural LSH baseline's classifier.
func CrossEntropy(logits *tensor.Matrix, labels []int) (float64, *tensor.Matrix) {
	b, m := logits.Rows, logits.Cols
	if len(labels) != b {
		panic("nn: CrossEntropy labels length mismatch")
	}
	grad := logits.Clone()
	SoftmaxRows(grad) // grad now holds P; adjust below
	var loss float64
	logRow := make([]float64, m)
	invB := float32(1.0 / float64(b))
	for i := 0; i < b; i++ {
		y := labels[i]
		if y < 0 || y >= m {
			panic("nn: CrossEntropy label out of range")
		}
		LogSoftmaxRow(logRow, logits.Row(i))
		loss -= logRow[y]
		grow := grad.Row(i)
		grow[y] -= 1
		for j := range grow {
			grow[j] *= invB
		}
	}
	return loss / float64(b), grad
}
