package core

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/vecmath"
)

// Hierarchy implements the recursive partitioning of §4.4.2: a root model
// splits the dataset into levels[0] bins, a child model per bin splits its
// subset into levels[1] bins, and so on, yielding ∏levels leaf bins. A
// query's leaf-bin probability is the product of the model probabilities
// along the root→leaf path.
type Hierarchy struct {
	NumBins int
	// Bins is the global leaf lookup table: Bins[g] lists the ids in leaf
	// bin g in insertion order (see table.go). Leaves are numbered depth
	// first (mixed radix).
	Bins [][]int32
	root *hnode
}

// hnode is one model of the tree. Only the leaf table holds ids: inner and
// leaf models alike just route (§4.4.2).
type hnode struct {
	model    *nn.Sequential
	children []*hnode // nil at the last level
	leafBase int      // first global leaf-bin id under this node
}

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
func TrainHierarchy(ds *dataset.Dataset, levels []int, cfg Config) (*Hierarchy, []TrainStats, error) {
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
	h := &Hierarchy{NumBins: numBins, Bins: make([][]int32, numBins)}
	all := make([]int32, ds.N)
	for i := range all {
		all[i] = int32(i)
	}
	root, stats, err := trainNode(ds, all, levels, cfg, 0, h)
	if err != nil {
		return nil, nil, err
	}
	h.root = root
	h.Bins = mergeTable(h.Bins, nil)
	return h, stats, nil
}

// trainNode trains the model for one subset and recurses, returning the
// subtree's stats in pre-order. idx holds global dataset indices of the
// subset; leafBase is the subtree's first global leaf bin, which also seeds
// the node.
func trainNode(ds *dataset.Dataset, idx []int32, levels []int, cfg Config,
	leafBase int, h *Hierarchy) (*hnode, []TrainStats, error) {

	m := levels[0]
	node := &hnode{leafBase: leafBase}
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
			return nil, nil, fmt.Errorf("core: hierarchy node: %w", err)
		}
		stats = append(stats, st)
		node.model = p.Model
		localBins = p.Bins
	} else {
		// Degenerate subset: untrained router, round-robin assignment.
		rng := rand.New(rand.NewSource(cfg.Seed + int64(leafBase)))
		node.model = nn.NewLogistic(ds.Dim, m, rng)
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
				h.Bins[g] = append(h.Bins[g], idx[li])
			}
		}
		return node, stats, nil
	}

	// Child b's subtree holds the ∏levels[1:] leaves after its elder
	// siblings'.
	span := 1
	for _, c := range levels[1:] {
		span *= c
	}
	node.children = make([]*hnode, m)
	childStats := make([][]TrainStats, m)
	errs := make([]error, m)
	par.ForChunksMin(m, 1, func(first, end int) {
		for b := first; b < end; b++ {
			childIdx := make([]int32, len(localBins[b]))
			for i, li := range localBins[b] {
				childIdx[i] = idx[li]
			}
			node.children[b], childStats[b], errs[b] = trainNode(ds, childIdx, levels[1:], cfg, leafBase+b*span, h)
		}
	})
	for b, err := range errs {
		if err != nil {
			return nil, nil, err
		}
		stats = append(stats, childStats[b]...)
	}
	return node, stats, nil
}

// LeafProbabilitiesInto writes the query's probability for every global
// leaf bin — the product of model outputs along each root→leaf path — into
// dst (grown as needed), running every node's forward pass through the
// scratch's per-depth buffers.
func (h *Hierarchy) LeafProbabilitiesInto(dst []float32, q []float32, qs *QueryScratch) []float32 {
	if cap(dst) < h.NumBins {
		dst = make([]float32, h.NumBins)
	}
	dst = dst[:h.NumBins]
	h.walkNode(dst, h.root, 0, 1, q, qs)
	return dst
}

// walkNode multiplies node distributions down the tree into out. Each depth
// owns one scratch buffer: a parent's distribution stays live while its
// children recurse, but siblings at the same depth can share.
func (h *Hierarchy) walkNode(out []float32, n *hnode, depth int, prob float32, q []float32, qs *QueryScratch) {
	probs := qs.predict(&qs.nodeProb, depth, n.model, q)
	if n.children == nil {
		for b, pb := range probs {
			out[n.leafBase+b] = prob * pb
		}
		return
	}
	for b, child := range n.children {
		h.walkNode(out, child, depth+1, prob*probs[b], q, qs)
	}
}

// Route walks the tree for q through the single-row kernel, leaving the
// leaf distribution in row 0 of the scratch. The hierarchy is one router,
// so the probe mode does not apply.
func (h *Hierarchy) Route(qs *QueryScratch, q []float32, _ ProbeMode) {
	qs.leaf = h.LeafProbabilitiesInto(qs.leaf, q, qs)
}

// RouteBatch walks the tree once for the whole staged batch: each node's
// model runs a single batched forward pass, and the per-row root→leaf
// probability products accumulate through per-depth buffers in the same
// multiplication order as the single-row walk, filling the rows×NumBins
// leaf distribution.
func (h *Hierarchy) RouteBatch(qs *QueryScratch, _ ProbeMode) {
	n := qs.q.Rows
	qs.leaf = growFloats(qs.leaf, n*h.NumBins)
	root := qs.pathBuf(0, n)
	for i := range root {
		root[i] = 1
	}
	h.walkNodeBatch(qs, h.root, 0, n)
}

// walkNodeBatch is walkNode over a staged batch. Each depth owns one node
// buffer and one path buffer: a parent's distribution and path products
// stay live while its children recurse, but siblings at the same depth can
// share — the same per-depth discipline as the single-row walk.
func (h *Hierarchy) walkNodeBatch(qs *QueryScratch, nd *hnode, depth, n int) {
	probs := qs.predict(&qs.nodeProb, depth, nd.model, nil)
	w := nd.model.OutDim()
	path := qs.pathProb[depth]
	if nd.children == nil {
		for i := 0; i < n; i++ {
			row := probs[i*w : (i+1)*w]
			out := qs.leaf[i*h.NumBins+nd.leafBase:]
			pi := path[i]
			for b, pb := range row {
				out[b] = pi * pb
			}
		}
		return
	}
	for b, child := range nd.children {
		cp := qs.pathBuf(depth+1, n)
		for i := 0; i < n; i++ {
			cp[i] = path[i] * probs[i*w+b]
		}
		h.walkNodeBatch(qs, child, depth+1, n)
	}
}

// AppendCandidatesRow appends routed row i's candidate set to dst: the
// lookup lists of its mPrime most probable leaf bins. Leaf bins are
// disjoint, so no dedup is needed and mode goes unused.
func (h *Hierarchy) AppendCandidatesRow(dst []int32, i, mPrime int, _ ProbeMode, qs *QueryScratch) []int32 {
	row := qs.leaf[i*h.NumBins : (i+1)*h.NumBins]
	qs.bins = vecmath.TopKIndicesInto(qs.bins, row, mPrime)
	for _, b := range qs.bins {
		dst = append(dst, h.Bins[b]...)
	}
	return dst
}

// CandidatesWith returns the candidate set for q as a fresh []int — the
// adapter the offline callers use — reusing the caller's scratch across
// queries (tree-walk and selection buffers stay warm).
func (h *Hierarchy) CandidatesWith(qs *QueryScratch, q []float32, mPrime int) []int {
	h.Route(qs, q, BestConfidence)
	qs.cands = h.AppendCandidatesRow(qs.cands[:0], 0, mPrime, BestConfidence, qs)
	return ToInts(qs.cands)
}

// BinSizes returns the number of points per global leaf bin.
func (h *Hierarchy) BinSizes() []int {
	out := make([]int, h.NumBins)
	for g, pts := range h.Bins {
		out[g] = len(pts)
	}
	return out
}

// TotalParams sums learnable parameters over all models in the tree.
func (h *Hierarchy) TotalParams() int {
	total := 0
	var walk func(n *hnode)
	walk = func(n *hnode) {
		total += n.model.NumParams()
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(h.root)
	return total
}
