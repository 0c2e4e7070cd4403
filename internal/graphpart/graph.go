// Package graphpart implements balanced graph partitioning of k-NN graphs:
// the substrate the Neural LSH baseline (Dong et al. 2020) relies on for its
// ground-truth labels, standing in for the KaHIP partitioner (Sanders &
// Schulz 2012) the original uses.
//
// The algorithm is multilevel recursive bisection: heavy-edge-matching
// coarsening, BFS region-growing initial bisection, and Fiduccia–Mattheyses
// boundary refinement under an ε-balance constraint at every uncoarsening
// level.
package graphpart

import (
	"math/rand"
	"slices"
)

// Edge is one weighted adjacency entry.
type Edge struct {
	To int32
	W  float32
}

// Graph is an undirected vertex-weighted, edge-weighted graph in adjacency
// list form. Every edge appears in both endpoints' lists.
type Graph struct {
	N     int
	Adj   [][]Edge
	NodeW []int32
}

// NewGraph allocates an empty graph on n vertices with unit vertex weights.
func NewGraph(n int) *Graph {
	g := &Graph{N: n, Adj: make([][]Edge, n), NodeW: make([]int32, n)}
	for i := range g.NodeW {
		g.NodeW[i] = 1
	}
	return g
}

// AddEdge inserts an undirected edge. Parallel edges are allowed; they act
// as accumulated weight.
func (g *Graph) AddEdge(u, v int32, w float32) {
	if u == v {
		return
	}
	g.Adj[u] = append(g.Adj[u], Edge{v, w})
	g.Adj[v] = append(g.Adj[v], Edge{u, w})
}

// TotalNodeWeight sums vertex weights.
func (g *Graph) TotalNodeWeight() int64 {
	var t int64
	for _, w := range g.NodeW {
		t += int64(w)
	}
	return t
}

// FromKNN builds the symmetrized k-NN graph of §2.3: an edge links i and j
// if either lists the other as a neighbor; mutual neighbors get doubled
// weight, matching the usual symmetrization for partitioning-based indexes.
// Edges are added in ascending (a, b) order, so the adjacency lists, and
// with them a seeded Partition, do not depend on map iteration order.
func FromKNN(neighbors [][]int32) *Graph {
	n := len(neighbors)
	g := NewGraph(n)
	weight := make(map[int64]float32, n*8)
	for i, row := range neighbors {
		for _, j := range row {
			a, b := int32(i), j
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			weight[pairKey(a, b)]++
		}
	}
	addSorted(g, weight)
	return g
}

// pairKey packs an edge's endpoints a ≤ b into one key whose order is the
// lexicographic (a, b) order.
func pairKey(a, b int32) int64 { return int64(a)<<32 | int64(b) }

// addSorted adds the edges of weight to g in ascending key order.
func addSorted(g *Graph, weight map[int64]float32) {
	keys := make([]int64, 0, len(weight))
	for key := range weight {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		g.AddEdge(int32(key>>32), int32(key&0xffffffff), weight[key])
	}
}

// CutWeight returns the total weight of edges crossing the partition (each
// undirected edge counted once).
func CutWeight(g *Graph, part []int32) float64 {
	var cut float64
	for u := 0; u < g.N; u++ {
		for _, e := range g.Adj[u] {
			if int32(u) < e.To && part[u] != part[e.To] {
				cut += float64(e.W)
			}
		}
	}
	return cut
}

// subgraph extracts the induced subgraph on the vertices with part[v] == side
// and returns it along with the mapping from new ids to original ids.
func subgraph(g *Graph, part []int32, side int32) (*Graph, []int32) {
	var ids []int32
	newID := make([]int32, g.N)
	for v := 0; v < g.N; v++ {
		newID[v] = -1
	}
	for v := 0; v < g.N; v++ {
		if part[v] == side {
			newID[v] = int32(len(ids))
			ids = append(ids, int32(v))
		}
	}
	sub := NewGraph(len(ids))
	for i, orig := range ids {
		sub.NodeW[i] = g.NodeW[orig]
		for _, e := range g.Adj[orig] {
			if to := newID[e.To]; to >= 0 && int32(i) < to {
				sub.AddEdge(int32(i), to, e.W)
			}
		}
	}
	return sub, ids
}

// Partition divides g into parts groups of near-equal total vertex weight
// (relative imbalance ≤ eps per bisection) minimizing edge cut, by recursive
// multilevel bisection. It returns a part id per vertex.
func Partition(g *Graph, parts int, eps float64, seed int64) []int32 {
	out := make([]int32, g.N)
	if parts <= 1 || g.N == 0 {
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	partitionRec(g, parts, eps, rng, out, 0)
	return out
}

// partitionRec assigns part ids [base, base+parts) to the vertices of g,
// writing into out (which is indexed by g's vertex ids — callers pass
// per-subgraph slices via remapping).
func partitionRec(g *Graph, parts int, eps float64, rng *rand.Rand, out []int32, base int32) {
	if parts == 1 {
		for v := 0; v < g.N; v++ {
			out[v] = base
		}
		return
	}
	leftParts := parts / 2
	rightParts := parts - leftParts
	frac := float64(leftParts) / float64(parts)
	bi := bisect(g, frac, eps, rng)

	leftG, leftIDs := subgraph(g, bi, 0)
	rightG, rightIDs := subgraph(g, bi, 1)

	leftOut := make([]int32, leftG.N)
	rightOut := make([]int32, rightG.N)
	partitionRec(leftG, leftParts, eps, rng, leftOut, base)
	partitionRec(rightG, rightParts, eps, rng, rightOut, base+int32(leftParts))
	for i, orig := range leftIDs {
		out[orig] = leftOut[i]
	}
	for i, orig := range rightIDs {
		out[orig] = rightOut[i]
	}
}
