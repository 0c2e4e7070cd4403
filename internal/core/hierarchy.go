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
// (bench/rig.go) and goes with the rig (ROADMAP 1(b)).
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
// (grown as needed) through the scratch's buffers: the walk of
// topLeafProbs at m′ = M, which expands every node. The engine routes
// through Ensemble.Route; only the stage rig (bench/rig.go) calls this, and
// it goes with the rig (ROADMAP 1(b)).
func (p *Partitioner) LeafProbabilitiesInto(dst []float32, q []float32, qs *QueryScratch) []float32 {
	dst = growFloats(dst, p.M)
	p.topLeafProbs(dst, q, p.M, qs)
	return dst
}

// topLeafProbs writes q's leaf distribution into dst (len M), exact for the
// mPrime most probable leaves, through single-row inference, and returns
// the number of models it ran. A flat partitioner's is its model's output.
// A tree's leaf probability is the product of the model outputs along its
// root→leaf path, multiplied from the root down (1·p is p exactly, so depth
// 1 needs no special case). The walk expands its nodes best first: the node
// with the highest path product (ties to the lower leafBase) runs its model
// and multiplies its outputs into its children's products or, at the last
// level, into its leaves. While the walk is bounded — mPrime < M and every
// output so far in [0, 1] — fl(p·x) ≤ p, so no leaf beats its ancestor's
// product, and the walk stops once the best unexpanded product is strictly
// below the mPrime-th best leaf found, never on equality, since
// TopKIndicesInto breaks ties by ascending index. The leaves left
// unexpanded read −1, below every probability, so the row's top mPrime
// leaves, its ArgMax and their bits are those of a walk over every node.
// An output outside [0, 1] (NaN, from an overflowing forward pass) voids
// the bound: the walk then expands every node left, popping the frontier
// from its end, and every leaf holds the same product of the same operands.
func (p *Partitioner) topLeafProbs(dst, q []float32, mPrime int, qs *QueryScratch) int {
	if p.children == nil {
		p.Model.PredictVecInto(dst[:0], q, &qs.Infer)
		return 1
	}
	mPrime = max(mPrime, 1) // member selection reads the top leaf
	bounded := mPrime < p.M
	for i := range dst {
		dst[i] = -1
	}
	best := qs.best[:0] // the mPrime best leaves so far, descending
	front := append(qs.frontier[:0], frontierNode{&p.node, 1})
	models := 0
	for len(front) > 0 {
		j := len(front) - 1
		if bounded {
			for i, f := range front {
				if f.prod > front[j].prod || f.prod == front[j].prod && f.nd.leafBase < front[j].nd.leafBase {
					j = i
				}
			}
			if len(best) == mPrime && front[j].prod < best[mPrime-1] {
				break
			}
		}
		top := front[j]
		front[j] = front[len(front)-1]
		front = front[:len(front)-1]
		nd := top.nd
		qs.nodeProb = nd.Model.PredictVecInto(qs.nodeProb, q, &qs.Infer)
		models++
		for _, pb := range qs.nodeProb {
			bounded = bounded && pb >= 0 && pb <= 1
		}
		for b, pb := range qs.nodeProb {
			prod := top.prod * pb
			if nd.children != nil {
				front = append(front, frontierNode{&nd.children[b], prod})
				continue
			}
			dst[nd.leafBase+b] = prod
			if !bounded {
				continue
			}
			if len(best) < mPrime {
				best = append(best, prod)
			} else if prod > best[mPrime-1] {
				best[mPrime-1] = prod
			} else {
				continue
			}
			for k := len(best) - 1; k > 0 && best[k-1] < best[k]; k-- {
				best[k-1], best[k] = best[k], best[k-1]
			}
		}
	}
	clear(front[:cap(front)]) // hold no tree past the query
	qs.frontier, qs.best = front[:0], best[:0]
	return models
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
