// Package hnsw implements Hierarchical Navigable Small World graphs
// (Malkov & Yashunin 2018), the graph-based ANNS baseline of Fig. 7:
// exponentially sampled layers, greedy descent through upper layers, beam
// search (ef) at the base layer, and the distance-diversifying neighbor
// selection heuristic of the original paper.
package hnsw

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/vecmath"
)

// Config controls graph construction.
type Config struct {
	// M is the maximum out-degree on upper layers; the base layer allows
	// 2M (default 16).
	M int
	// EfConstruction is the construction beam width (default 100).
	EfConstruction int
	// Seed drives level sampling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.M == 0 {
		c.M = 16
	}
	if c.EfConstruction == 0 {
		c.EfConstruction = 100
	}
	return c
}

// Index is a built HNSW graph over a dataset.
type Index struct {
	cfg  Config
	data *dataset.Dataset
	// links[l][v] lists the neighbors of v on layer l (layers above a
	// node's level have no entry for it).
	links     []map[int32][]int32
	entry     int32
	maxLevel  int
	levelMult float64
	rng       *rand.Rand
}

// Build inserts every vector of ds into a fresh index.
func Build(ds *dataset.Dataset, cfg Config) (*Index, error) {
	if ds.N == 0 {
		return nil, fmt.Errorf("hnsw: empty dataset")
	}
	cfg = cfg.withDefaults()
	ix := &Index{
		cfg:       cfg,
		data:      ds,
		levelMult: 1 / math.Log(float64(cfg.M)),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		entry:     -1,
		maxLevel:  -1,
	}
	for i := 0; i < ds.N; i++ {
		ix.insert(int32(i))
	}
	return ix, nil
}

func (ix *Index) dist(a int32, q []float32) float32 {
	return vecmath.SquaredL2(ix.data.Row(int(a)), q)
}

// randomLevel samples a node level with the standard exponential decay.
func (ix *Index) randomLevel() int {
	r := ix.rng.Float64()
	for r == 0 {
		r = ix.rng.Float64()
	}
	return int(-math.Log(r) * ix.levelMult)
}

func (ix *Index) maxDegree(layer int) int {
	if layer == 0 {
		return 2 * ix.cfg.M
	}
	return ix.cfg.M
}

// minQueue is a min-heap of (dist, id) used as the search frontier.
type item struct {
	id int32
	d  float32
}
type minQueue []item

func (h minQueue) Len() int           { return len(h) }
func (h minQueue) Less(i, j int) bool { return h[i].d < h[j].d }
func (h minQueue) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *minQueue) Push(x any)        { *h = append(*h, x.(item)) }
func (h *minQueue) Pop() any          { o := *h; n := len(o); it := o[n-1]; *h = o[:n-1]; return it }

// searchLayer is Algorithm 2 of the paper: beam search with width ef on one
// layer starting from the given entry points.
func (ix *Index) searchLayer(q []float32, entries []item, ef, layer int) []item {
	visited := make(map[int32]struct{}, ef*4)
	frontier := &minQueue{}
	results := vecmath.NewTopK(ef)
	for _, e := range entries {
		if _, ok := visited[e.id]; ok {
			continue
		}
		visited[e.id] = struct{}{}
		heap.Push(frontier, e)
		results.Push(int(e.id), e.d)
	}
	for frontier.Len() > 0 {
		cur := heap.Pop(frontier).(item)
		if worst, full := results.Worst(); full && cur.d > worst {
			break
		}
		for _, nb := range ix.links[layer][cur.id] {
			if _, ok := visited[nb]; ok {
				continue
			}
			visited[nb] = struct{}{}
			d := ix.dist(nb, q)
			if worst, full := results.Worst(); !full || d < worst {
				heap.Push(frontier, item{nb, d})
				results.Push(int(nb), d)
			}
		}
	}
	sorted := results.Sorted()
	out := make([]item, len(sorted))
	for i, nb := range sorted {
		out[i] = item{int32(nb.Index), nb.Dist}
	}
	return out
}

// selectNeighbors applies the heuristic of Algorithm 4: keep a candidate
// only if it is closer to the query point than to every already-kept
// neighbor, which diversifies edge directions.
func (ix *Index) selectNeighbors(cands []item, m int) []int32 {
	var kept []item
	for _, c := range cands {
		if len(kept) >= m {
			break
		}
		ok := true
		for _, k := range kept {
			if vecmath.SquaredL2(ix.data.Row(int(c.id)), ix.data.Row(int(k.id))) < c.d {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, c)
		}
	}
	// Backfill with the nearest skipped candidates if the heuristic kept
	// too few (keepPrunedConnections in the original).
	if len(kept) < m {
		for _, c := range cands {
			if len(kept) >= m {
				break
			}
			dup := false
			for _, k := range kept {
				if k.id == c.id {
					dup = true
					break
				}
			}
			if !dup {
				kept = append(kept, c)
			}
		}
	}
	out := make([]int32, len(kept))
	for i, k := range kept {
		out[i] = k.id
	}
	return out
}

func (ix *Index) insert(v int32) {
	level := ix.randomLevel()
	for len(ix.links) <= level {
		ix.links = append(ix.links, make(map[int32][]int32))
	}
	q := ix.data.Row(int(v))

	if ix.entry < 0 {
		for l := 0; l <= level; l++ {
			ix.links[l][v] = nil
		}
		ix.entry = v
		ix.maxLevel = level
		return
	}

	// Greedy descent from the top to level+1.
	cur := item{ix.entry, ix.dist(ix.entry, q)}
	for l := ix.maxLevel; l > level; l-- {
		for {
			improved := false
			for _, nb := range ix.links[l][cur.id] {
				if d := ix.dist(nb, q); d < cur.d {
					cur = item{nb, d}
					improved = true
				}
			}
			if !improved {
				break
			}
		}
	}

	// Beam insert on layers min(level, maxLevel)..0.
	entries := []item{cur}
	for l := min(level, ix.maxLevel); l >= 0; l-- {
		cands := ix.searchLayer(q, entries, ix.cfg.EfConstruction, l)
		neighbors := ix.selectNeighbors(cands, ix.cfg.M)
		ix.links[l][v] = neighbors
		for _, nb := range neighbors {
			ix.links[l][nb] = append(ix.links[l][nb], v)
			if maxD := ix.maxDegree(l); len(ix.links[l][nb]) > maxD {
				// Re-select to shrink the over-full adjacency.
				nbVec := ix.data.Row(int(nb))
				var all []item
				for _, x := range ix.links[l][nb] {
					all = append(all, item{x, vecmath.SquaredL2(ix.data.Row(int(x)), nbVec)})
				}
				sortItems(all)
				ix.links[l][nb] = ix.selectNeighbors(all, maxD)
			}
		}
		entries = cands
	}
	if level > ix.maxLevel {
		ix.maxLevel = level
		ix.entry = v
	}
}

func sortItems(xs []item) {
	// Insertion sort: adjacency lists are short (≤ 2M+1).
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j].d < xs[j-1].d; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Search returns the k approximate nearest neighbors of q using beam width
// ef at the base layer, raised to k when smaller. Distances are squared L2.
func (ix *Index) Search(q []float32, k, ef int) []vecmath.Neighbor {
	if ef < k {
		ef = k
	}
	cur := item{ix.entry, ix.dist(ix.entry, q)}
	for l := ix.maxLevel; l > 0; l-- {
		for {
			improved := false
			for _, nb := range ix.links[l][cur.id] {
				if d := ix.dist(nb, q); d < cur.d {
					cur = item{nb, d}
					improved = true
				}
			}
			if !improved {
				break
			}
		}
	}
	res := ix.searchLayer(q, []item{cur}, ef, 0)
	if len(res) > k {
		res = res[:k]
	}
	out := make([]vecmath.Neighbor, len(res))
	for i, r := range res {
		out[i] = vecmath.Neighbor{Index: int(r.id), Dist: r.d}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
