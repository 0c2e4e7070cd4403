package graphpart

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
)

// ringOfCliques builds c cliques of size s connected in a ring by single
// edges: the canonical easy-partitioning graph with known optimal cuts.
func ringOfCliques(c, s int) *Graph {
	g := NewGraph(c * s)
	for ci := 0; ci < c; ci++ {
		base := ci * s
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				g.AddEdge(int32(base+i), int32(base+j), 1)
			}
		}
		next := ((ci + 1) % c) * s
		g.AddEdge(int32(base), int32(next), 1)
	}
	return g
}

func sideWeights(g *Graph, part []int32, parts int) []int64 {
	w := make([]int64, parts)
	for v := 0; v < g.N; v++ {
		w[part[v]] += int64(g.NodeW[v])
	}
	return w
}

func TestBisectRingOfCliques(t *testing.T) {
	g := ringOfCliques(4, 25) // 100 vertices; optimal bisection cut = 2
	part := Partition(g, 2, 0.05, 1)
	w := sideWeights(g, part, 2)
	if w[0] < 45 || w[0] > 55 {
		t.Fatalf("imbalanced bisection: %v", w)
	}
	cut := CutWeight(g, part)
	if cut > 4 { // optimum 2; allow slight slack
		t.Fatalf("cut = %v, want ≤ 4", cut)
	}
	// No clique should be split: all members of a clique share a side.
	for ci := 0; ci < 4; ci++ {
		side := part[ci*25]
		for i := 1; i < 25; i++ {
			if part[ci*25+i] != side {
				t.Fatalf("clique %d split by partition", ci)
			}
		}
	}
}

func TestPartitionFourWay(t *testing.T) {
	g := ringOfCliques(8, 20) // 160 vertices → 4 parts of 40
	part := Partition(g, 4, 0.1, 2)
	w := sideWeights(g, part, 4)
	for p, pw := range w {
		if pw < 30 || pw > 50 {
			t.Fatalf("part %d weight %d: %v", p, pw, w)
		}
	}
	if cut := CutWeight(g, part); cut > 16 {
		t.Fatalf("4-way cut %v too large", cut)
	}
}

func TestPartitionNonPowerOfTwo(t *testing.T) {
	g := ringOfCliques(6, 15) // 90 vertices, 3 parts of 30
	part := Partition(g, 3, 0.1, 3)
	w := sideWeights(g, part, 3)
	for p, pw := range w {
		if pw < 20 || pw > 40 {
			t.Fatalf("part %d weight %d: %v", p, pw, w)
		}
	}
}

func TestPartitionTrivialCases(t *testing.T) {
	g := ringOfCliques(2, 10)
	one := Partition(g, 1, 0.1, 4)
	for _, p := range one {
		if p != 0 {
			t.Fatal("parts=1 must map everything to 0")
		}
	}
	empty := Partition(NewGraph(0), 4, 0.1, 5)
	if len(empty) != 0 {
		t.Fatal("empty graph should give empty partition")
	}
}

func TestPartitionDisconnectedGraph(t *testing.T) {
	// Two components of unequal size with no edges between them.
	g := NewGraph(60)
	for i := int32(0); i < 40; i++ {
		g.AddEdge(i, (i+1)%40, 1)
	}
	for i := int32(40); i < 60; i++ {
		g.AddEdge(i, 40+((i-40+1)%20), 1)
	}
	part := Partition(g, 2, 0.1, 6)
	w := sideWeights(g, part, 2)
	if w[0] < 24 || w[0] > 36 {
		t.Fatalf("disconnected graph imbalance: %v", w)
	}
}

func TestFromKNNSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := dataset.GaussianMixture(dataset.GaussianMixtureConfig{
		N: 200, Dim: 4, Clusters: 4, ClusterStd: 0.1, CenterBox: 5,
	}, rng)
	mat := knn.BuildMatrix(l.Dataset, 5)
	g := FromKNN(mat.Neighbors)
	if g.N != 200 {
		t.Fatalf("N = %d", g.N)
	}
	// Adjacency symmetry: u lists v iff v lists u, same weight.
	for u := 0; u < g.N; u++ {
		for _, e := range g.Adj[u] {
			found := false
			for _, back := range g.Adj[e.To] {
				if back.To == int32(u) && back.W == e.W {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d has no symmetric twin", u, e.To)
			}
		}
	}
}

func TestPartitionKNNGraphRespectsClusters(t *testing.T) {
	// Partitioning the k-NN graph of 4 separated blobs into 4 parts should
	// essentially recover the blobs.
	rng := rand.New(rand.NewSource(8))
	l := dataset.GaussianMixture(dataset.GaussianMixtureConfig{
		N: 400, Dim: 4, Clusters: 4, ClusterStd: 0.05, CenterBox: 5,
	}, rng)
	mat := knn.BuildMatrix(l.Dataset, 8)
	g := FromKNN(mat.Neighbors)
	part := Partition(g, 4, 0.15, 9)
	// Purity: each part dominated by one true cluster.
	agree := 0
	for p := 0; p < 4; p++ {
		counts := map[int]int{}
		for v := 0; v < g.N; v++ {
			if part[v] == int32(p) {
				counts[l.Labels[v]]++
			}
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		agree += best
	}
	if purity := float64(agree) / float64(g.N); purity < 0.9 {
		t.Fatalf("partition purity %.3f", purity)
	}
}

func TestCutWeightCountsEachEdgeOnce(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 3)
	if cut := CutWeight(g, []int32{0, 1}); cut != 3 {
		t.Fatalf("cut = %v, want 3", cut)
	}
	if cut := CutWeight(g, []int32{0, 0}); cut != 0 {
		t.Fatalf("cut = %v, want 0", cut)
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 0, 5)
	if len(g.Adj[0]) != 0 {
		t.Fatal("self loop should be ignored")
	}
}

// TestPartitionKNNReproducible: one seed, one partition. FromKNN and the
// coarsening step add edges in sorted order, so nothing in a run depends
// on map iteration order.
func TestPartitionKNNReproducible(t *testing.T) {
	ds := dataset.Uniform(1000, 8, rand.New(rand.NewSource(31)))
	mat := knn.BuildMatrix(ds, 10)
	want := Partition(FromKNN(mat.Neighbors), 8, 0.1, 32)
	for run := 0; run < 3; run++ {
		got := Partition(FromKNN(mat.Neighbors), 8, 0.1, 32)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("run %d: vertex %d in part %d, first run put it in %d", run, v, got[v], want[v])
			}
		}
	}
}
