// Package trees implements the hyperplane-partitioning tree baselines of
// Fig. 6: a shared recursive binary-tree index parameterized by a Splitter
// (2-means, PCA, random projection, learned KD axis, or an externally
// supplied learner such as Regression LSH), plus the Boosted Search Forest
// of Li et al. (2011).
//
// All trees share one multi-probe protocol mirroring the learned methods':
// each node exposes a soft routing probability, a leaf's score is the
// product of edge probabilities on its root path, and a query probes the
// mPrime highest-scoring leaves.
package trees

import (
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/vecmath"
)

// Splitter is a fitted binary space split.
type Splitter interface {
	// Side routes a vector to subtree 0 or 1.
	Side(q []float32) int
	// Score returns the soft probability of side 1, in [0, 1]; it drives
	// multi-probe leaf ranking and must be consistent with Side
	// (Score ≥ 0.5 ⇔ Side == 1) away from the boundary.
	Score(q []float32) float32
}

// Fitter learns a Splitter for a subset of the dataset. Returning nil
// declares the subset unsplittable (degenerate), making it a leaf.
type Fitter interface {
	Fit(ds *dataset.Dataset, idx []int32, rng *rand.Rand) Splitter
	Name() string
}

// AssigningSplitter is an optional Splitter extension for supervised
// splitters (e.g. Regression LSH) where the *training points* must follow
// externally computed labels rather than the splitter's own routing:
// Assignments returns the side of each subset point, aligned with the idx
// slice passed to Fit. Queries still route through Side/Score.
type AssigningSplitter interface {
	Splitter
	Assignments() []int32
}

// Tree is a fitted binary partitioning tree.
type Tree struct {
	// Leaves[l] lists the dataset indices in leaf l.
	Leaves [][]int32
	root   *tnode
}

type tnode struct {
	split    Splitter
	children [2]*tnode
	leafID   int // valid when split == nil
}

// Build fits a tree of at most the given depth over ds. Subsets smaller than
// two points, or ones the fitter declares unsplittable, become leaves early.
func Build(ds *dataset.Dataset, depth int, f Fitter, seed int64) *Tree {
	rng := rand.New(rand.NewSource(seed))
	t := &Tree{}
	all := make([]int32, ds.N)
	for i := range all {
		all[i] = int32(i)
	}
	t.root = t.build(ds, all, depth, f, rng)
	return t
}

func (t *Tree) build(ds *dataset.Dataset, idx []int32, depth int, f Fitter, rng *rand.Rand) *tnode {
	makeLeaf := func() *tnode {
		n := &tnode{leafID: len(t.Leaves)}
		t.Leaves = append(t.Leaves, idx)
		return n
	}
	if depth == 0 || len(idx) < 2 {
		return makeLeaf()
	}
	sp := f.Fit(ds, idx, rng)
	if sp == nil {
		return makeLeaf()
	}
	var left, right []int32
	if as, ok := sp.(AssigningSplitter); ok {
		sides := as.Assignments()
		for pos, i := range idx {
			if sides[pos] == 0 {
				left = append(left, i)
			} else {
				right = append(right, i)
			}
		}
	} else {
		for _, i := range idx {
			if sp.Side(ds.Row(int(i))) == 0 {
				left = append(left, i)
			} else {
				right = append(right, i)
			}
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return makeLeaf()
	}
	n := &tnode{split: sp}
	n.children[0] = t.build(ds, left, depth-1, f, rng)
	n.children[1] = t.build(ds, right, depth-1, f, rng)
	return n
}

// LeafScores returns the query's probability mass for every leaf: products
// of soft routing probabilities along root→leaf paths.
func (t *Tree) LeafScores(q []float32) []float32 {
	out := make([]float32, len(t.Leaves))
	var walk func(n *tnode, p float32)
	walk = func(n *tnode, p float32) {
		if n.split == nil {
			out[n.leafID] = p
			return
		}
		s := n.split.Score(q)
		if s < 0 {
			s = 0
		} else if s > 1 {
			s = 1
		}
		walk(n.children[0], p*(1-s))
		walk(n.children[1], p*s)
	}
	walk(t.root, 1)
	return out
}

// Candidates returns the union of the points in the mPrime highest-scoring
// leaves for q.
func (t *Tree) Candidates(q []float32, mPrime int) []int {
	leaves := vecmath.TopKIndices(t.LeafScores(q), mPrime)
	var out []int
	for _, l := range leaves {
		for _, i := range t.Leaves[l] {
			out = append(out, int(i))
		}
	}
	return out
}
