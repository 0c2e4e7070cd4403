package core

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/vecmath"
)

// Partitioner is one trained USP router together with the lookup table of
// Algorithm 1 step 3. It is a tree of models (§4.4.2): the root model splits
// the space into its outputs, and an inner node hands each output to a child
// that splits it further. The leaves are the bins, numbered depth first; a
// query's leaf probability is the product of the model outputs along the
// root→leaf path. A flat partitioner — what Train returns, and every
// ensemble member — is a tree of depth 1, whose bins are its model's outputs.
type Partitioner struct {
	node // the root; its Model is the partitioner's model
	// M is the number of leaf bins.
	M int
	// Bins[b] lists the ids in leaf bin b in insertion order (see table.go).
	Bins [][]int32
}

// node is one model of the tree. Only the leaf table holds ids: inner and
// leaf models alike just route.
type node struct {
	Model    *nn.Sequential
	children []node // nil at the last level
	leafBase int    // first leaf bin under this node
}

// AppendBin appends the ids of bin b to dst. It allocates only when dst
// must grow. Only the stage rig (bench/rig.go) calls it; it goes with the
// rig (ROADMAP 1(c)).
func (p *Partitioner) AppendBin(dst []int32, b int) []int32 {
	return append(dst, p.Bins[b]...)
}

// TrainStats reports offline-phase metrics (the quantities of Tables 2–3).
type TrainStats struct {
	Duration  time.Duration
	FinalLoss float64
	Quality   float64
	Balance   float64
	Params    int
}

// Train learns a partition of ds into cfg.Bins bins using the unsupervised
// loss. knnMat must be the k′-NN matrix of ds with K ≥ cfg.KPrime (only the
// first cfg.KPrime columns are consulted). weights are the optional ensemble
// point weights of Eq. 14 (nil = uniform).
//
// Following the reference implementation, the neighbor bin assignments that
// define the quality-loss targets (Eq. 9) are refreshed once per epoch from
// a full-dataset inference snapshot rather than recomputed per batch; the
// targets are treated as constants (stop-gradient), so the per-batch
// gradient is exactly that of nn.USPLoss.
func Train(ds *dataset.Dataset, knnMat *knn.Matrix, cfg Config, weights []float32) (*Partitioner, TrainStats, error) {
	if err := cfg.validate(ds.N); err != nil {
		return nil, TrainStats{}, err
	}
	cfg = cfg.withDefaults(ds.N)
	if knnMat == nil || len(knnMat.Neighbors) != ds.N {
		return nil, TrainStats{}, fmt.Errorf("core: k'-NN matrix missing or wrong size")
	}
	if knnMat.K < cfg.KPrime {
		return nil, TrainStats{}, fmt.Errorf("core: k'-NN matrix has K=%d < KPrime=%d", knnMat.K, cfg.KPrime)
	}
	if weights != nil && len(weights) != ds.N {
		return nil, TrainStats{}, fmt.Errorf("core: weights length %d != n=%d", len(weights), ds.N)
	}

	rng := cfg.rng()
	var model *nn.Sequential
	if len(cfg.Hidden) == 0 {
		model = nn.NewLogistic(ds.Dim, cfg.Bins, rng)
	} else {
		model = nn.NewMLP(ds.Dim, cfg.Hidden, cfg.Bins, cfg.Dropout, rng)
	}
	opt := nn.NewAdam(cfg.LR)

	start := time.Now()
	if cfg.TargetGrad {
		if err := trainTargetGrad(ds, knnMat, cfg, weights, model, opt, rng); err != nil {
			return nil, TrainStats{}, err
		}
		p := &Partitioner{node: node{Model: model}, M: cfg.Bins}
		p.buildLookup(ds)
		return p, TrainStats{
			Duration: time.Since(start),
			Params:   model.NumParams(),
		}, nil
	}
	n, m := ds.N, cfg.Bins

	var last nn.LossResult
	snapshot := make([]int32, n) // bin assignment of every point, refreshed per epoch

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Refresh the assignment snapshot used for quality targets.
		probs := predictBatched(model, ds, 4096)
		for i := 0; i < n; i++ {
			snapshot[i] = int32(vecmath.ArgMax(probs.Row(i)))
		}

		perm := rng.Perm(n)
		var epochLoss, epochQ, epochB float64
		batches := 0
		for lo := 0; lo < n; lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > n {
				hi = n
			}
			idx := perm[lo:hi]
			b := len(idx)
			if b < 2 {
				continue // balance term degenerate on singleton batches
			}
			x := tensor.New(b, ds.Dim)
			targets := tensor.New(b, m)
			var w []float32
			if weights != nil {
				w = make([]float32, b)
			}
			for bi, pi := range idx {
				copy(x.Row(bi), ds.Row(pi))
				if weights != nil {
					w[bi] = weights[pi]
				}
				trow := targets.Row(bi)
				nbrs := knnMat.Neighbors[pi][:cfg.KPrime]
				for _, nj := range nbrs {
					trow[snapshot[nj]]++
				}
				inv := 1 / float32(len(nbrs))
				for j := range trow {
					trow[j] *= inv
				}
			}

			model.ZeroGrads()
			logits := model.Forward(x)
			var res nn.LossResult
			if cfg.EntropyBalance {
				res = nn.USPLossEntropy(logits, targets, w, cfg.Eta)
			} else {
				res = nn.USPLoss(logits, targets, w, cfg.Eta)
			}
			model.Backward(res.Grad)
			opt.Step(model.Params())

			epochLoss += res.Loss
			epochQ += res.Quality
			epochB += res.Balance
			batches++
			last = res
		}
		if cfg.Logf != nil && batches > 0 {
			cfg.Logf("epoch %3d: loss=%.4f quality=%.4f balance=%.4f",
				epoch, epochLoss/float64(batches), epochQ/float64(batches), epochB/float64(batches))
		}
	}

	p := &Partitioner{node: node{Model: model}, M: m}
	p.buildLookup(ds)
	stats := TrainStats{
		Duration:  time.Since(start),
		FinalLoss: last.Loss,
		Quality:   last.Quality,
		Balance:   last.Balance,
		Params:    model.NumParams(),
	}
	return p, stats, nil
}

// ClusterLabels trains a single USP model with m = k bins and returns each
// point's bin as a cluster label — the paper's §5.5 use of the partitioner
// as a general clustering method.
func ClusterLabels(ds *dataset.Dataset, k int, cfg Config) ([]int, error) {
	cfg.Bins = k
	kp := cfg.KPrime
	if kp <= 0 {
		kp = 10
	}
	if kp >= ds.N {
		kp = ds.N - 1
	}
	cfg.KPrime = kp
	mat := knn.BuildMatrix(ds, kp)
	p, _, err := Train(ds, mat, cfg, nil)
	if err != nil {
		return nil, err
	}
	labels := make([]int, ds.N)
	for b, ids := range p.Bins {
		for _, id := range ids {
			labels[id] = b
		}
	}
	return labels, nil
}

// buildLookup runs inference over the whole dataset and fills the lookup
// table (Algorithm 1, step 3), each bin in ascending id order.
func (p *Partitioner) buildLookup(ds *dataset.Dataset) {
	probs := predictBatched(p.Model, ds, 4096)
	lists := make([][]int32, p.M)
	for i := 0; i < ds.N; i++ {
		b := vecmath.ArgMax(probs.Row(i))
		lists[b] = append(lists[b], int32(i))
	}
	p.Bins = mergeTable(lists, nil)
}

// predictBatched evaluates the model on every row of ds in chunks through
// the batched inference kernel and one reused scratch, writing each chunk
// straight into the returned n×m probability matrix.
func predictBatched(model *nn.Sequential, ds *dataset.Dataset, chunk int) *tensor.Matrix {
	out := tensor.New(ds.N, model.OutDim())
	var sc nn.BatchInferScratch
	for lo := 0; lo < ds.N; lo += chunk {
		hi := lo + chunk
		if hi > ds.N {
			hi = ds.N
		}
		x := tensor.FromSlice(hi-lo, ds.Dim, ds.Data[lo*ds.Dim:hi*ds.Dim])
		model.PredictBatchInto(out.Data[lo*out.Cols:hi*out.Cols], x, &sc)
	}
	return out
}

// ProbabilitiesInto writes the root model's bin distribution for q into dst
// (grown as needed) through the inference scratch — for a flat partitioner,
// its leaf distribution. Only the stage rig (bench/rig.go) calls it; it goes
// with the rig (ROADMAP 1(c)).
func (p *Partitioner) ProbabilitiesInto(dst []float32, q []float32, sc *nn.InferScratch) []float32 {
	return p.Model.PredictVecInto(dst, q, sc)
}

// BinSizes returns the number of points per leaf bin (partition balance
// diagnostics).
func (p *Partitioner) BinSizes() []int {
	out := make([]int, p.M)
	for b, ids := range p.Bins {
		out[b] = len(ids)
	}
	return out
}

// SeparatedNeighbors returns, for every point i of the dataset knnMat was
// built on, the number of its first kPrime neighbors assigned to a different
// bin than i — the per-point quality cost of Eq. 2 and the raw ensemble
// weight update of Algorithm 3.
func (p *Partitioner) SeparatedNeighbors(knnMat *knn.Matrix, kPrime int) []int {
	if kPrime > knnMat.K {
		kPrime = knnMat.K
	}
	bin := make([]int32, len(knnMat.Neighbors))
	for b, ids := range p.Bins {
		for _, id := range ids {
			bin[id] = int32(b)
		}
	}
	out := make([]int, len(bin))
	for i := range bin {
		cnt := 0
		for _, nj := range knnMat.Neighbors[i][:kPrime] {
			if bin[nj] != bin[i] {
				cnt++
			}
		}
		out[i] = cnt
	}
	return out
}
