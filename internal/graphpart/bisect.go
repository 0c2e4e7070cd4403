package graphpart

import (
	"container/heap"
	"math/rand"
)

// bisect splits g into sides 0/1 where side 0 receives ≈ frac of the total
// vertex weight (±eps relative). Multilevel: coarsen by heavy-edge matching,
// bisect the coarsest graph by region growing, then refine with FM at every
// level on the way back up.
func bisect(g *Graph, frac, eps float64, rng *rand.Rand) []int32 {
	const coarsestSize = 160
	// Build the coarsening hierarchy.
	graphs := []*Graph{g}
	var maps [][]int32 // maps[l][v] = coarse id of fine vertex v at level l
	for graphs[len(graphs)-1].N > coarsestSize {
		cur := graphs[len(graphs)-1]
		coarse, m := coarsen(cur, rng)
		if coarse.N >= cur.N*95/100 {
			break // matching stalled (e.g. star graphs); stop coarsening
		}
		graphs = append(graphs, coarse)
		maps = append(maps, m)
	}

	// Initial bisection on the coarsest graph: best of several region
	// growings plus FM polish.
	coarsest := graphs[len(graphs)-1]
	part := bestRegionGrow(coarsest, frac, rng, 8)
	fmRefine(coarsest, part, frac, eps, 6)

	// Uncoarsen and refine.
	for l := len(graphs) - 2; l >= 0; l-- {
		fine := graphs[l]
		finePart := make([]int32, fine.N)
		m := maps[l]
		for v := 0; v < fine.N; v++ {
			finePart[v] = part[m[v]]
		}
		part = finePart
		fmRefine(fine, part, frac, eps, 4)
	}
	return part
}

// coarsen contracts a heavy-edge matching: each vertex merges with its
// unmatched neighbor of maximum edge weight.
func coarsen(g *Graph, rng *rand.Rand) (*Graph, []int32) {
	match := make([]int32, g.N)
	for v := range match {
		match[v] = -1
	}
	order := rng.Perm(g.N)
	coarseID := make([]int32, g.N)
	nCoarse := int32(0)
	for _, v := range order {
		if match[v] != -1 {
			continue
		}
		best := int32(-1)
		var bestW float32 = -1
		for _, e := range g.Adj[v] {
			if match[e.To] == -1 && int(e.To) != v && e.W > bestW {
				best, bestW = e.To, e.W
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = int32(v)
			coarseID[v] = nCoarse
			coarseID[best] = nCoarse
		} else {
			match[v] = int32(v)
			coarseID[v] = nCoarse
		}
		nCoarse++
	}
	coarse := NewGraph(int(nCoarse))
	for i := range coarse.NodeW {
		coarse.NodeW[i] = 0
	}
	for v := 0; v < g.N; v++ {
		coarse.NodeW[coarseID[v]] += g.NodeW[v]
	}
	// Aggregate edges between coarse vertices.
	agg := make(map[int64]float32, g.N*4)
	for v := 0; v < g.N; v++ {
		cu := coarseID[v]
		for _, e := range g.Adj[v] {
			cv := coarseID[e.To]
			if cu >= cv { // each unordered coarse pair once (cu<cv), skip internal
				continue
			}
			agg[pairKey(cu, cv)] += e.W
		}
	}
	addSorted(coarse, agg)
	return coarse, coarseID
}

// bestRegionGrow tries several BFS region growings and returns the partition
// with the smallest cut.
func bestRegionGrow(g *Graph, frac float64, rng *rand.Rand, trials int) []int32 {
	total := g.TotalNodeWeight()
	target := int64(float64(total) * frac)
	var best []int32
	bestCut := -1.0
	for t := 0; t < trials; t++ {
		part := regionGrow(g, target, rng)
		cut := CutWeight(g, part)
		if bestCut < 0 || cut < bestCut {
			bestCut, best = cut, part
		}
	}
	return best
}

// regionGrow BFS-grows side 0 from a random seed until it holds ≈ target
// vertex weight; everything else is side 1.
func regionGrow(g *Graph, target int64, rng *rand.Rand) []int32 {
	part := make([]int32, g.N)
	for v := range part {
		part[v] = 1
	}
	visited := make([]bool, g.N)
	var queue []int32
	var grown int64
	seed := int32(rng.Intn(g.N))
	queue = append(queue, seed)
	visited[seed] = true
	for len(queue) > 0 && grown < target {
		v := queue[0]
		queue = queue[1:]
		part[v] = 0
		grown += int64(g.NodeW[v])
		for _, e := range g.Adj[v] {
			if !visited[e.To] {
				visited[e.To] = true
				queue = append(queue, e.To)
			}
		}
		// Disconnected graph: restart BFS from a fresh vertex.
		if len(queue) == 0 && grown < target {
			for u := 0; u < g.N; u++ {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, int32(u))
					break
				}
			}
		}
	}
	return part
}

// fmItem is a heap entry for FM refinement with lazy invalidation.
type fmItem struct {
	v    int32
	gain float32
	gen  int32
}

type fmHeap []fmItem

func (h fmHeap) Len() int           { return len(h) }
func (h fmHeap) Less(i, j int) bool { return h[i].gain > h[j].gain }
func (h fmHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *fmHeap) Push(x any)        { *h = append(*h, x.(fmItem)) }
func (h *fmHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// fmRefine runs up to maxPasses Fiduccia–Mattheyses passes improving the cut
// while keeping both sides within (1+eps) of their weight targets.
func fmRefine(g *Graph, part []int32, frac, eps float64, maxPasses int) {
	total := g.TotalNodeWeight()
	target0 := float64(total) * frac
	target1 := float64(total) - target0
	max0 := int64(target0 * (1 + eps))
	max1 := int64(target1 * (1 + eps))
	if max0 <= 0 {
		max0 = 1
	}
	if max1 <= 0 {
		max1 = 1
	}

	gain := make([]float32, g.N)
	gen := make([]int32, g.N)
	locked := make([]bool, g.N)
	computeGain := func(v int32) float32 {
		var ext, intl float32
		for _, e := range g.Adj[v] {
			if part[e.To] == part[v] {
				intl += e.W
			} else {
				ext += e.W
			}
		}
		return ext - intl
	}

	var side [2]int64
	for v := 0; v < g.N; v++ {
		side[part[v]] += int64(g.NodeW[v])
	}

	for pass := 0; pass < maxPasses; pass++ {
		h := &fmHeap{}
		for v := 0; v < g.N; v++ {
			locked[v] = false
			gain[v] = computeGain(int32(v))
			gen[v]++
			heap.Push(h, fmItem{int32(v), gain[v], gen[v]})
		}
		type move struct {
			v    int32
			from int32
		}
		var moves []move
		var cum, bestCum float32
		bestLen := 0

		for h.Len() > 0 {
			it := heap.Pop(h).(fmItem)
			v := it.v
			if locked[v] || it.gen != gen[v] {
				continue
			}
			from := part[v]
			to := 1 - from
			// Balance check for the prospective move.
			w := int64(g.NodeW[v])
			if (to == 0 && side[0]+w > max0) || (to == 1 && side[1]+w > max1) {
				continue
			}
			locked[v] = true
			part[v] = to
			side[from] -= w
			side[to] += w
			cum += gain[v]
			moves = append(moves, move{v, from})
			if cum > bestCum {
				bestCum = cum
				bestLen = len(moves)
			}
			for _, e := range g.Adj[v] {
				if !locked[e.To] {
					gain[e.To] = computeGain(e.To)
					gen[e.To]++
					heap.Push(h, fmItem{e.To, gain[e.To], gen[e.To]})
				}
			}
		}
		// Revert moves beyond the best prefix.
		for i := len(moves) - 1; i >= bestLen; i-- {
			m := moves[i]
			w := int64(g.NodeW[m.v])
			side[part[m.v]] -= w
			side[m.from] += w
			part[m.v] = m.from
		}
		if bestCum <= 0 {
			break
		}
	}
}
