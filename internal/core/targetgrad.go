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
			pos := make(map[int32]int, len(batch)*(kp+1))
			var ids []int32
			add := func(id int32) int {
				if p, ok := pos[id]; ok {
					return p
				}
				p := len(ids)
				pos[id] = p
				ids = append(ids, id)
				return p
			}
			type edge struct {
				pi, pj int // row positions
				w      float32
			}
			var edges []edge
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
			if wsum <= 0 {
				wsum = 1
			}

			x := tensor.New(len(ids), ds.Dim)
			for r, id := range ids {
				copy(x.Row(r), ds.Row(int(id)))
			}
			model.ZeroGrads()
			logits := model.Forward(x, &ts)
			probs := logits.Clone()
			nn.SoftmaxRows(probs)

			grad := tensor.New(len(ids), m)
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
				v := make([]float32, m)
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
				nn.AddWindowBalance(probs, grad, cfg.Eta)
			}
			model.Backward(grad, &ts)
			opt.Step(params)
		}
	}
	return nil
}
