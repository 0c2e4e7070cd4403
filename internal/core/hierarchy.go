package core

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/nn"
	"repro/internal/par"
)

// Hierarchy is a Partitioner trained by TrainHierarchy: the recursive
// partitioning of §4.4.2, a root model splitting the dataset into levels[0]
// bins, a child model per bin splitting its subset into levels[1] bins, and
// so on, yielding ∏levels leaf bins. The name is kept only for the stage rig
// (bench/rig.go) and goes with the rig (ROADMAP 1(c)).
type Hierarchy = Partitioner

// TrainHierarchy trains the tree of models. levels gives the branching
// factor per level (the paper's 256-bin configuration is levels = [16, 16];
// the Fig. 6 logistic-regression trees are ten levels of 2). cfg.Bins is
// ignored (overridden per level). Subsets too small to train a model are
// split round-robin by an untrained model, which only arises at depths where
// candidate sets are already tiny.
//
// Once a node has trained, its children train concurrently: each subtree
// reads only its own subset of ds, takes its seed and leaf range from its
// position in the tree, and writes only its own leaves of the table, so the
// models and table are those a depth-first serial walk would train. The
// returned stats are in that walk's order (pre-order). cfg.Logf may be
// called from several goroutines at once.
func TrainHierarchy(ds *dataset.Dataset, levels []int, cfg Config) (*Partitioner, []TrainStats, error) {
	if len(levels) == 0 {
		return nil, nil, fmt.Errorf("core: hierarchy needs at least one level")
	}
	numBins := 1
	for _, m := range levels {
		if m < 2 {
			return nil, nil, fmt.Errorf("core: branching factors must be ≥ 2, got %v", levels)
		}
		numBins *= m
	}
	h := &Partitioner{M: numBins, Bins: make([][]int32, numBins)}
	all := make([]int32, ds.N)
	for i := range all {
		all[i] = int32(i)
	}
	stats, err := trainNode(&h.node, ds, all, levels, cfg, h.Bins)
	if err != nil {
		return nil, nil, err
	}
	h.Bins = mergeTable(h.Bins, nil)
	return h, stats, nil
}

// trainNode trains nd's model for one subset and recurses, returning the
// subtree's stats in pre-order. idx holds global dataset indices of the
// subset; nd.leafBase is the subtree's first leaf bin, which also seeds the
// node. The subtree's ids go to its leaves of bins.
func trainNode(nd *node, ds *dataset.Dataset, idx []int32, levels []int, cfg Config, bins [][]int32) ([]TrainStats, error) {
	m := levels[0]
	leafBase := nd.leafBase
	local := make([]int, len(idx))
	for i, g := range idx {
		local[i] = int(g)
	}
	sub := ds.Subset(local)

	// localBins[b] lists positions within idx assigned to bin b.
	var localBins [][]int32
	var stats []TrainStats
	if sub.N >= 2*m && sub.N > cfg.KPrime && sub.N >= 4 {
		ncfg := cfg
		ncfg.Bins = m
		ncfg.Seed = cfg.Seed + int64(leafBase)*104729
		kp := ncfg.KPrime
		if kp >= sub.N {
			kp = sub.N - 1
		}
		mat := knn.BuildMatrix(sub, kp)
		ncfg.KPrime = kp
		p, st, err := Train(sub, mat, ncfg, nil)
		if err != nil {
			return nil, fmt.Errorf("core: hierarchy node: %w", err)
		}
		stats = append(stats, st)
		nd.Model = p.Model
		localBins = p.Bins
	} else {
		// Degenerate subset: untrained router, round-robin assignment.
		rng := rand.New(rand.NewSource(cfg.Seed + int64(leafBase)))
		nd.Model = nn.NewLogistic(ds.Dim, m, rng)
		localBins = make([][]int32, m)
		for i := 0; i < sub.N; i++ {
			localBins[i%m] = append(localBins[i%m], int32(i))
		}
	}

	if len(levels) == 1 {
		// Leaf level: local bins become consecutive global leaf bins.
		for b := 0; b < m; b++ {
			g := leafBase + b
			for _, li := range localBins[b] {
				bins[g] = append(bins[g], idx[li])
			}
		}
		return stats, nil
	}

	// Child b's subtree holds the ∏levels[1:] leaves after its elder
	// siblings'.
	span := 1
	for _, c := range levels[1:] {
		span *= c
	}
	nd.children = make([]node, m)
	childStats := make([][]TrainStats, m)
	errs := make([]error, m)
	par.ForChunksMin(m, 1, func(first, end int) {
		for b := first; b < end; b++ {
			childIdx := make([]int32, len(localBins[b]))
			for i, li := range localBins[b] {
				childIdx[i] = idx[li]
			}
			child := &nd.children[b]
			child.leafBase = leafBase + b*span
			childStats[b], errs[b] = trainNode(child, ds, childIdx, levels[1:], cfg, bins)
		}
	})
	for b, err := range errs {
		if err != nil {
			return nil, err
		}
		stats = append(stats, childStats[b]...)
	}
	return stats, nil
}

// LeafProbabilitiesInto writes q's probability for every leaf bin into dst
// (grown as needed) through the scratch's buffers. The engine routes through
// Ensemble.Route; only the stage rig (bench/rig.go) calls this, and it goes
// with the rig (ROADMAP 1(c)).
func (p *Partitioner) LeafProbabilitiesInto(dst []float32, q []float32, qs *QueryScratch) []float32 {
	return p.leafProbs(dst, q, qs)
}

// leafProbs writes the leaf distributions of the routed rows into dst,
// rows×M row-major, grown as needed: q through the single-row kernel, or the
// rows staged with qs.Stage when q is nil. A flat partitioner's is its
// model's output, written in place. A tree's is the product of the model
// outputs along each root→leaf path, multiplied from the root down; at
// depth 1 that would be 1·p, which is p exactly, so both forms give the same
// bits.
func (p *Partitioner) leafProbs(dst, q []float32, qs *QueryScratch) []float32 {
	if p.children == nil {
		return qs.predictInto(dst, p.Model, q)
	}
	n := 1
	if q == nil {
		n = qs.q.Rows
	}
	dst = growFloats(dst, n*p.M)
	path := qs.pathBuf(0, n)
	for i := range path {
		path[i] = 1
	}
	p.walk(dst, &p.node, 0, n, q, qs)
	return dst
}

// walk runs nd's model over the routed rows and multiplies each row's path
// product down to nd's leaves of out. Each depth owns one node buffer and
// one path buffer: a parent's distribution and path products stay live
// while its children recurse, but siblings at the same depth can share.
func (p *Partitioner) walk(out []float32, nd *node, depth, n int, q []float32, qs *QueryScratch) {
	buf := slot(&qs.nodeProb, depth)
	*buf = qs.predictInto(*buf, nd.Model, q)
	probs := *buf
	w := nd.Model.OutDim()
	path := qs.pathProb[depth]
	if nd.children == nil {
		for i := 0; i < n; i++ {
			row := probs[i*w : (i+1)*w]
			leaves := out[i*p.M+nd.leafBase:]
			for b, pb := range row {
				leaves[b] = path[i] * pb
			}
		}
		return
	}
	for b := range nd.children {
		cp := qs.pathBuf(depth+1, n)
		for i := 0; i < n; i++ {
			cp[i] = path[i] * probs[i*w+b]
		}
		p.walk(out, &nd.children[b], depth+1, n, q, qs)
	}
}

// TotalParams sums learnable parameters over every model of the tree.
func (p *Partitioner) TotalParams() int {
	var count func(nd *node) int
	count = func(nd *node) int {
		total := nd.Model.NumParams()
		for i := range nd.children {
			total += count(&nd.children[i])
		}
		return total
	}
	return count(&p.node)
}
