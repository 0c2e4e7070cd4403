package core

import (
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// trainTargetGrad is the Eq. 8 training path: each mini-batch forwards the
// sampled points *and* their k′ neighbors through the model in one training
// graph, and the quality loss
//
//	L = Σ_i w_i Σ_{j ∈ N_k′(i)} CE(P_j, P_i) / (k′ Σw)
//
// backpropagates through both sides — the P_i side gets the usual
// soft-target cross-entropy gradient (P_i − P_j), and the P_j (target) side
// gets the softmax-Jacobian pull P_j ⊙ (v − <v, P_j>) with v = −log P_i —
// so neighborhoods drag each other toward shared bins. The balance term of
// Eqs. 12–13 is computed over all forwarded rows.
func trainTargetGrad(ds *dataset.Dataset, knnMat *knn.Matrix, cfg Config,
	weights []float32, model *nn.Sequential, opt *nn.Adam, rng *rand.Rand) error {

	n, m := ds.N, cfg.Bins
	kp := cfg.KPrime
	const logFloor = -18.4 // log(1e-8): caps the target-side pull
	params := model.Params()
	var ts nn.TrainScratch

	// One batch's forward set, edges and matrices, refilled per batch.
	// pos maps a dataset id to its row in the forward set (−1: absent);
	// only the ids a batch added are reset after it.
	type edge struct {
		pi, pj int // row positions
		w      float32
	}
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	var (
		ids            []int32
		edges          []edge
		x, probs, grad tensor.Matrix
	)
	v := make([]float32, m) // an edge's −log P_i
	add := func(id int32) int {
		if p := pos[id]; p >= 0 {
			return int(p)
		}
		pos[id] = int32(len(ids))
		ids = append(ids, id)
		return len(ids) - 1
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(n)
		for lo := 0; lo < n; lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > n {
				hi = n
			}
			batch := perm[lo:hi]
			if len(batch) < 2 {
				continue
			}
			// Dedup batch ∪ neighbors into one forward set.
			ids, edges = ids[:0], edges[:0]
			var wsum float64
			for _, bi := range batch {
				w := float32(1)
				if weights != nil {
					w = weights[bi]
				}
				wsum += float64(w)
				rowI := add(int32(bi))
				for _, nj := range knnMat.Neighbors[bi][:kp] {
					edges = append(edges, edge{rowI, add(nj), w})
				}
			}
			for _, id := range ids {
				pos[id] = -1
			}
			if wsum <= 0 {
				wsum = 1
			}

			rows := len(ids)
			resize(&x, rows, ds.Dim)
			for r, id := range ids {
				copy(x.Row(r), ds.Row(int(id)))
			}
			model.ZeroGrads()
			logits := model.Forward(&x, &ts)
			copy(resize(&probs, rows, m).Data, logits.Data)
			nn.SoftmaxRows(&probs)
			clear(resize(&grad, rows, m).Data)
			escale := 1 / (float64(kp) * wsum)
			for _, e := range edges {
				pi, pj := probs.Row(e.pi), probs.Row(e.pj)
				gi, gj := grad.Row(e.pi), grad.Row(e.pj)
				we := float32(float64(e.w) * escale)
				// Prediction side: CE(P_j as target, logits_i).
				for b := 0; b < m; b++ {
					gi[b] += we * (pi[b] - pj[b])
				}
				// Target side: v = −log P_i, chained through softmax of j.
				var dot float32
				for b := 0; b < m; b++ {
					lp := math.Log(float64(pi[b]) + 1e-12)
					if lp < logFloor {
						lp = logFloor
					}
					v[b] = float32(-lp)
					dot += v[b] * pj[b]
				}
				for b := 0; b < m; b++ {
					gj[b] += we * pj[b] * (v[b] - dot)
				}
			}

			// Balance term over every forwarded row.
			if cfg.Eta != 0 {
				nn.AddWindowBalance(&probs, &grad, cfg.Eta)
			}
			model.Backward(&grad, &ts)
			opt.Step(params)
		}
	}
	return nil
}
