package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/vecmath"
)

// requireTopMatchesFull routes q through p's best-first walk (Route) at
// every m′ from 1 to M and requires what a probe of m′ bins reads to be the
// full walk's (referenceLeafProbs, a recursive walk over every node): the
// top-m′ leaves in TopKIndices order, their bits, the row's ArgMax and the
// selected member. At m′ = M, where the walk is unbounded, every leaf must
// hold the full walk's bits. RouteBatch over a staged chunk of q must give
// Route's row and model count at every m′. It returns the models the walk
// ran at each m′ (index m′−1) and the tree's model count.
func requireTopMatchesFull(t *testing.T, name string, p *Partitioner, q []float32) (models []int, nodes int) {
	t.Helper()
	full := referenceLeafProbs(p, q)
	var qs, qsBatch QueryScratch
	tree := OneTree(p)
	tree.Route(&qs, q, p.M)
	for b, v := range qs.probs[0] {
		if math.Float32bits(v) != math.Float32bits(full[b]) {
			t.Fatalf("%s m'=M: leaf %d reads %v, full walk %v", name, b, v, full[b])
		}
	}
	nodes, wantMember := qs.RoutedModels(0), qs.bestIdx[0]
	copy(qsBatch.Stage(1, len(q)), q)
	for mp := 1; mp <= p.M; mp++ {
		tree.Route(&qs, q, mp)
		got := qs.probs[0]
		want := vecmath.TopKIndices(full, mp)
		if top := vecmath.TopKIndices(got, mp); !slices.Equal(top, want) {
			t.Fatalf("%s m'=%d: top leaves %v, full walk's %v", name, mp, top, want)
		}
		for _, b := range want {
			if math.Float32bits(got[b]) != math.Float32bits(full[b]) {
				t.Fatalf("%s m'=%d: leaf %d reads %v, full walk %v", name, mp, b, got[b], full[b])
			}
		}
		if a, b := vecmath.ArgMax(got), vecmath.ArgMax(full); a != b {
			t.Fatalf("%s m'=%d: ArgMax %d, full walk's %d", name, mp, a, b)
		}
		if qs.bestIdx[0] != wantMember {
			t.Fatalf("%s m'=%d: selected member %d, full walk's %d", name, mp, qs.bestIdx[0], wantMember)
		}
		tree.RouteBatch(&qsBatch, mp)
		if !slices.Equal(bits(qsBatch.probs[0]), bits(got)) || qsBatch.RoutedModels(0) != qs.RoutedModels(0) || qsBatch.bestIdx[0] != qs.bestIdx[0] {
			t.Fatalf("%s m'=%d: RouteBatch row %v after %d models, Route's %v after %d", name, mp, qsBatch.probs[0], qsBatch.RoutedModels(0), got, qs.RoutedModels(0))
		}
		models = append(models, qs.RoutedModels(0))
	}
	return models, nodes
}

// bits returns the IEEE bits of every value of row, so rows holding NaN
// compare equal when their bits do.
func bits(row []float32) []uint32 {
	out := make([]uint32, len(row))
	for i, v := range row {
		out[i] = math.Float32bits(v)
	}
	return out
}

// TestBestFirstWalkMatchesFullWalkTrained: on trained [8,8] and [16,16]
// trees, for held-out queries, the best-first walk agrees with the full walk
// at every m′ from 1 to M, and at small m′ runs fewer models than the tree
// has. Add's routing (RouteBinsWith, m′ = 1) and RouteLeafWith put every
// training and held-out row in the leaf the full walk picks.
func TestBestFirstWalkMatchesFullWalkTrained(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	all := dataset.GaussianMixture(dataset.GaussianMixtureConfig{
		N: 3024, Dim: 16, Clusters: 32, ClusterStd: 0.4, CenterBox: 3, NoiseFrac: 0.1,
	}, rng).Dataset
	const heldOut = 24
	train := make([]int, all.N-heldOut)
	for i := range train {
		train[i] = i
	}
	ds := all.Subset(train)
	for _, levels := range [][]int{{8, 8}, {16, 16}} {
		h, _, err := TrainHierarchy(ds, levels, Config{KPrime: 5, Eta: 10, Epochs: 3, BatchSize: 256, Hidden: []int{16}, Seed: 82})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprint(levels)
		var atOne, nodes int
		for i := ds.N; i < all.N; i++ {
			models, n := requireTopMatchesFull(t, name, h, all.Row(i))
			atOne, nodes = atOne+models[0], n
		}
		if mean := float64(atOne) / heldOut; mean >= float64(nodes) {
			t.Fatalf("%s: %.2f models per query at m'=1, the tree has %d", name, mean, nodes)
		} else {
			t.Logf("%s: %.2f of %d models per query at m'=1", name, mean, nodes)
		}

		var qs QueryScratch
		tree := OneTree(h)
		for i := 0; i < all.N; i++ {
			row := all.Row(i)
			want := vecmath.ArgMax(referenceLeafProbs(h, row))
			if got := tree.RouteBinsWith(&qs, row, nil)[0]; got != want {
				t.Fatalf("%s row %d: Add routes to leaf %d, the full walk to %d", name, i, got, want)
			}
			if got := h.RouteLeafWith(&qs, row); got != want {
				t.Fatalf("%s row %d: RouteLeafWith routes to leaf %d, the full walk to %d", name, i, got, want)
			}
		}
	}
}

// fixedModel returns a model over dim inputs whose logits are the given
// values whatever the query (zero weights), so its output is exact where
// the test needs it: logits of 0 and −1e30 give a uniform distribution over
// the 0s and exact zeros elsewhere, −100 a subnormal, NaN a NaN row.
func fixedModel(dim int, logits []float32) *nn.Sequential {
	m := nn.NewLogistic(dim, len(logits), rand.New(rand.NewSource(1)))
	d := m.Layers[0].(*nn.Dense)
	clear(d.W.Value.Data)
	copy(d.B.Value.Data, logits)
	return m
}

// fixedTree assembles a tree of the given branching factors whose node at
// depth d with first leaf leafBase outputs the distribution of logits(d,
// leafBase). Leaf bin b holds the one id b.
func fixedTree(dim int, levels []int, logits func(depth, leafBase int) []float32) *Partitioner {
	m := 1
	for _, l := range levels {
		m *= l
	}
	p := &Partitioner{M: m, Bins: make([][]int32, m)}
	for b := range p.Bins {
		p.Bins[b] = []int32{int32(b)}
	}
	var build func(nd *node, depth, leafBase, span int)
	build = func(nd *node, depth, leafBase, span int) {
		nd.leafBase = leafBase
		nd.Model = fixedModel(dim, logits(depth, leafBase))
		if depth == len(levels)-1 {
			return
		}
		span /= levels[depth]
		nd.children = make([]node, levels[depth])
		for b := range nd.children {
			build(&nd.children[b], depth+1, leafBase+b*span, span)
		}
	}
	build(&p.node, 0, 0, m)
	return p
}

// TestBestFirstWalkMatchesFullWalkConstructed runs the agreement check on
// trees whose outputs are exact: sibling outputs that tie across subtrees,
// path products that are zero or subnormal, a node whose product equals
// the m′-th best leaf found (the walk must expand it: TopKIndices takes the
// lower index), and NaN at a node the walk expands, after which the walk
// expands every node.
func TestBestFirstWalkMatchesFullWalkConstructed(t *testing.T) {
	const dim = 4
	q := []float32{0.5, -1, 2, 0}
	const (
		tie  = 0     // uniform over the 0s of a node
		zero = -1e30 // an exact 0 output
		tiny = -100  // a subnormal output
	)
	nan := float32(math.NaN())
	at := func(table map[[2]int][]float32, def []float32) func(int, int) []float32 {
		return func(depth, leafBase int) []float32 {
			if l, ok := table[[2]int{depth, leafBase}]; ok {
				return l
			}
			return def
		}
	}

	// Root (½, ½). Node 0 (product ½) splits evenly into products ¼ and ¼;
	// node 4 (product ½, popped second) puts everything in its first child,
	// which splits into leaves 4 and 5 at ¼. The walk finds leaf 4 at ¼
	// before node 0's children, whose product is ¼ too; node 0's first child
	// must still be expanded, since its leaf 0, also ¼, is the top leaf.
	equal := fixedTree(dim, []int{2, 2, 2}, at(map[[2]int][]float32{
		{1, 4}: {tie, zero},
		{2, 0}: {tie, zero},
	}, []float32{tie, tie}))
	requireTopMatchesFull(t, "stop on equality", equal, q)

	uniform := fixedTree(dim, []int{4, 4}, at(nil, []float32{tie, tie, tie, tie}))
	requireTopMatchesFull(t, "all leaves tie", uniform, q)

	subnormal := fixedTree(dim, []int{3, 2, 2}, at(map[[2]int][]float32{
		{0, 0}: {tie, tiny, zero},
		{1, 4}: {tiny, tie},
	}, []float32{tie, tiny}))
	requireTopMatchesFull(t, "zero and subnormal products", subnormal, q)

	// Random trees over logits drawn from a small set, so ties, zeros and
	// subnormals meet in every combination.
	rng := rand.New(rand.NewSource(83))
	draws := []float32{tie, tie, tie, zero, tiny, -87, -0.5, 1}
	for i := 0; i < 200; i++ {
		shape := [][]int{{2, 2, 2}, {3, 2, 4}, {4, 4}, {2, 3, 2, 2}, {5, 3}}[i%5]
		p := fixedTree(dim, shape, func(depth, _ int) []float32 {
			l := make([]float32, shape[depth])
			for j := range l {
				l[j] = draws[rng.Intn(len(draws))]
			}
			return l
		})
		requireTopMatchesFull(t, "random", p, q)
	}

	// NaN at the root, and at the child with the larger product: the walk
	// expands both, so the row is the full walk's — all NaN, or NaN in
	// leaves 0 and 1 — and no member is selected (leaf 0 is NaN).
	nanRoot := fixedTree(dim, []int{2, 2}, at(map[[2]int][]float32{{0, 0}: {nan, tie}}, []float32{tie, tie}))
	requireTopMatchesFull(t, "NaN root", nanRoot, q)
	nanChild := fixedTree(dim, []int{2, 2}, at(map[[2]int][]float32{
		{0, 0}: {tie, zero},
		{1, 0}: {nan, tie},
	}, []float32{tie, tie}))
	requireTopMatchesFull(t, "NaN expanded child", nanChild, q)
	var qs QueryScratch
	if OneTree(nanChild).Route(&qs, q, 1); qs.bestIdx[0] != -1 {
		t.Fatalf("NaN expanded child: member %d selected, want none", qs.bestIdx[0])
	}

	// NaN met after the four best leaves are found (nodes 2 and 3, leaves
	// 4–7), at node 1, whose product is below theirs but above their
	// leaves'. Node 0 is below every leaf found and would be left: but
	// TopKIndices ranks leaves 0 and 1 above the NaNs of leaves 2 and 3, so
	// from m′ = 5 leaves 0 and 1 must hold their values, and only the full
	// walk gives them.
	requireTopMatchesFull(t, "NaN after the top leaves", nanLateTree(dim), q)
}

// nanLateTree is a [4,2] tree whose row for any query is [u0, u1, NaN, NaN,
// ¼·½, ¼·½, ¼·½, ¼·½] with u0 < u1 < ⅛: its node 1 outputs NaN, after the
// four best leaves' nodes.
func nanLateTree(dim int) *Partitioner {
	return fixedTree(dim, []int{4, 2}, func(depth, leafBase int) []float32 {
		switch {
		case depth == 0:
			return []float32{-5, -0.5, 0, 0}
		case leafBase == 0:
			return []float32{-1, 0}
		case leafBase == 2:
			return []float32{float32(math.NaN()), 0}
		}
		return []float32{0, 0}
	})
}

// TestAddedRowInEveryProbeOfNaNRow: on a routing row holding NaN after its
// numbers, the leaf Add picks (ArgMax) is the top-1 leaf a query probes, and
// the ranked leaves nest, so a row added with some vector is a candidate of
// that vector at every probe count, single and batched.
func TestAddedRowInEveryProbeOfNaNRow(t *testing.T) {
	const dim, id = 4, 100
	q := []float32{0.5, -1, 2, 0}
	tree := OneTree(nanLateTree(dim))
	var qs, qsBatch QueryScratch
	bins := tree.RouteBinsWith(&qs, q, nil)
	if row := qs.probs[0]; row[2] == row[2] || row[3] == row[3] || bins[0] < 4 {
		t.Fatalf("row %v routed Add to leaf %v, want NaN leaves 2 and 3 and a leaf of 4–7", row, bins)
	}
	tree.InsertRouted(id, bins)
	copy(qsBatch.Stage(1, dim), q)
	for mp := 1; mp <= tree.Parts[0].M; mp++ {
		if got := appendCandidates(tree, nil, q, mp, &qs); !slices.Contains(got, id) {
			t.Fatalf("m'=%d: candidates %v miss the row added at leaf %d", mp, got, bins[0])
		}
		tree.RouteBatch(&qsBatch, mp)
		if got := tree.AppendCandidatesRow(nil, 0, mp, &qsBatch); !slices.Contains(got, id) {
			t.Fatalf("m'=%d: batched candidates %v miss the row added at leaf %d", mp, got, bins[0])
		}
	}
}

// TestBestFirstWalkSkipsUnreachedModels pins what the walk cannot see: a
// model it never runs. Node 0's product is 0, below every leaf of node 2,
// so a NaN model there changes nothing — the row, its models and the
// candidates are those of the same tree with a finite node 0 — while the
// full walk would carry the NaN to leaf 0 and select no member. A batch
// routes each row through the same walk, so it prunes node 0 too. Such a
// model needs broken weights: no query ValidateVector admits overflows a
// trained model.
func TestBestFirstWalkSkipsUnreachedModels(t *testing.T) {
	const dim = 4
	q := []float32{1, 2, 3, 4}
	nan := float32(math.NaN())
	build := func(node0 float32) *Partitioner {
		return fixedTree(dim, []int{2, 2}, func(depth, leafBase int) []float32 {
			switch {
			case depth == 0:
				return []float32{-1e30, 0}
			case leafBase == 0:
				return []float32{node0, 0}
			}
			return []float32{0, 0}
		})
	}
	broken, finite := OneTree(build(nan)), OneTree(build(0))
	for _, mp := range []int{1, 2} {
		var qb, qf, qBatch QueryScratch
		got := appendCandidates(broken, nil, q, mp, &qb)
		want := appendCandidates(finite, nil, q, mp, &qf)
		if !slices.Equal(got, want) || qb.RoutedModels(0) != 2 || qf.RoutedModels(0) != 2 {
			t.Fatalf("m'=%d: candidates %v after %d models, finite tree's %v after %d", mp, got, qb.RoutedModels(0), want, qf.RoutedModels(0))
		}
		copy(qBatch.Stage(1, dim), q)
		broken.RouteBatch(&qBatch, mp)
		batch := broken.AppendCandidatesRow(nil, 0, mp, &qBatch)
		if !slices.Equal(bits(qBatch.probs[0]), bits(qb.probs[0])) || qBatch.RoutedModels(0) != 2 || !slices.Equal(batch, got) {
			t.Fatalf("m'=%d: batch row %v, candidates %v after %d models; single row %v, candidates %v", mp, qBatch.probs[0], batch, qBatch.RoutedModels(0), qb.probs[0], got)
		}
	}
}
