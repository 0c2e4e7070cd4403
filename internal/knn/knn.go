// Package knn implements exact k-nearest-neighbor computation: brute-force
// single queries, batched all-pairs construction of the k′-NN matrix the
// offline phase needs (Fig. 2 of the paper), ground-truth generation for
// query sets, and the k-NN accuracy metric (Eq. 1).
package knn

import (
	"fmt"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/par"
	"repro/internal/vecmath"
)

// Search returns the k nearest neighbors of query within base by exhaustive
// scan, sorted by ascending distance.
func Search(base *dataset.Dataset, query []float32, k int) []vecmath.Neighbor {
	return SearchSubset(base, nil, query, k)
}

// SearchSubset scans only the rows of base listed in subset (all rows when
// subset is nil) and returns the k nearest, sorted by ascending distance.
// This is the candidate-set scan of the online phase (Alg. 2, step 3).
func SearchSubset(base *dataset.Dataset, subset []int, query []float32, k int) []vecmath.Neighbor {
	tk := vecmath.NewTopK(k)
	if subset == nil {
		for i := 0; i < base.N; i++ {
			tk.Push(i, vecmath.SquaredL2(query, base.Row(i)))
		}
	} else {
		for _, i := range subset {
			tk.Push(i, vecmath.SquaredL2(query, base.Row(i)))
		}
	}
	return tk.Sorted()
}

// SearchSubsetInto is the zero-allocation candidate scan of the batched
// query engine: it scans the rows listed in subset, retains the k nearest in
// the caller's TopK selector, and appends them (ascending distance) to dst.
// base must carry its squared-norm cache (dataset.EnsureSqNorms; Append keeps
// it extended): each row costs one dot product (‖x‖² − 2q·x + ‖q‖²) instead
// of a subtract-square pass, taken a block of rows at a time.
// Ids present in skip (the epoch's tombstone set; nil when no deletes are
// pending) are excluded from the result — candidate gathering stays
// branch-free and the filter costs one bit test per candidate, only on
// indexes that actually carry tombstones. Steady-state the call allocates
// nothing beyond growth of dst.
func SearchSubsetInto(dst []vecmath.Neighbor, base *dataset.Dataset, subset []int32, query []float32, k int, tk *vecmath.TopK, skip *bitset.Set) []vecmath.Neighbor {
	dst, _ = SearchSubsetIntoCounted(dst, base, subset, query, k, tk, skip)
	return dst
}

// scanBlock is how many candidate ids one block-kernel call scores
// (vecmath.DotRows in the float scan, vecmath.LUTSumRows in the ADC scan).
// The two per-block buffers live on the scan's stack (2 KB together).
const scanBlock = 256

// Both scans below have one shape. Up to scanBlock ids — tombstoned ones
// dropped into a stack buffer first, when the epoch has any — are scored by
// one block-kernel call into a second stack buffer, and an entry reaches
// TopK.Push unless its distance exceeds the current worst retained one. A
// tie at the cut reaches Push, which decides it by id, so the retained set
// is that of pushing every candidate, in any order.

// dropTombstoned copies the ids of a block that are not in skip to live,
// in order, and returns them with the number dropped.
func dropTombstoned(live *[scanBlock]int32, ids []int32, skip *bitset.Set) ([]int32, int) {
	n := 0
	for _, id := range ids {
		if !skip.Has(int(id)) {
			live[n] = id
			n++
		}
	}
	return live[:n], len(ids) - n
}

// SearchSubsetIntoCounted is SearchSubsetInto plus accounting: it also
// returns how many candidate ids the tombstone filter dropped — the waste
// metric telemetry tracks to decide when pending deletes warrant a
// compaction.
//
// Like SearchSubsetInto, it requires base's norm cache. Each distance is
// vecmath.SquaredL2FromDot of the block's dot product, the expression
// vecmath.SquaredL2Fused evaluates, so the distances are those of a per-row
// SquaredL2Fused scan bit for bit.
func SearchSubsetIntoCounted(dst []vecmath.Neighbor, base *dataset.Dataset, subset []int32, query []float32, k int, tk *vecmath.TopK, skip *bitset.Set) ([]vecmath.Neighbor, int) {
	tk.SetK(k)
	skipped := 0
	tombs := skip.Count() > 0
	qNorm, norms := vecmath.Dot(query, query), base.SqNorms
	var live [scanBlock]int32
	var buf [scanBlock]float32
	for len(subset) > 0 {
		ids := subset[:min(scanBlock, len(subset))]
		subset = subset[len(ids):]
		if tombs {
			var dropped int
			ids, dropped = dropTombstoned(&live, ids, skip)
			skipped += dropped
		}
		dots := buf[:len(ids)]
		vecmath.DotRows(dots, query, base.Data, base.Dim, ids)
		worst, full := tk.Worst()
		for i, dot := range dots {
			id := ids[i]
			if d := vecmath.SquaredL2FromDot(dot, qNorm, norms[id]); !full || !(d > worst) {
				tk.Push(int(id), d)
				worst, full = tk.Worst()
			}
		}
	}
	return tk.AppendSorted(dst), skipped
}

// SearchSubsetADCIntoCounted is the quantized counterpart of
// SearchSubsetIntoCounted: instead of streaming float rows it scores each
// candidate from its m-byte PQ code via the per-query flat lookup table lut
// (m rows of kTab floats; see vecmath.LUTSum), retaining the k best
// approximate distances in the caller's TopK selector and appending them
// (ascending) to dst. The tombstone skip hook and its skipped count behave
// identically to the float scan. codes is the flat row-major code buffer
// (row i at codes[i*m:(i+1)*m]); it must cover every id in subset.
// Steady-state the call allocates nothing beyond growth of dst.
func SearchSubsetADCIntoCounted(dst []vecmath.Neighbor, codes []uint8, m, kTab int, lut []float32, subset []int32, k int, tk *vecmath.TopK, skip *bitset.Set) ([]vecmath.Neighbor, int) {
	tk.SetK(k)
	skipped := 0
	tombs := skip.Count() > 0
	var live [scanBlock]int32
	var dist [scanBlock]float32
	for len(subset) > 0 {
		ids := subset[:min(scanBlock, len(subset))]
		subset = subset[len(ids):]
		if tombs {
			var dropped int
			ids, dropped = dropTombstoned(&live, ids, skip)
			skipped += dropped
		}
		vecmath.LUTSumRows(dist[:], lut, kTab, codes, m, ids)
		worst, full := tk.Worst()
		for i, id := range ids {
			if d := dist[i]; !full || !(d > worst) {
				tk.Push(int(id), d)
				worst, full = tk.Worst()
			}
		}
	}
	return tk.AppendSorted(dst), skipped
}

// Matrix is the k′-NN matrix of §4.2.1: row i lists the indices of the k′
// nearest neighbors of point i within the dataset (excluding i itself),
// ordered by ascending distance.
type Matrix struct {
	K         int
	Neighbors [][]int32
}

// joinTile is how many rows one side of a BuildMatrix or GroundTruth tile
// holds. Each row of one tile is scored against the other tile's rows by
// one SquaredL2Rows call, so the other tile (64 KB of 128-d rows) stays
// cached while the whole of the first streams past it.
const joinTile = 128

// BuildMatrix computes the exact k′-NN matrix by a tiled brute-force
// self-join. This is the paper's only preprocessing step.
//
// Each pair of rows is scored once: the rows are cut into joinTile-row
// tiles, every tile pair (I, J) with I ≤ J — and on the diagonal only the
// pairs j > i — is scored by SquaredL2Rows, and each distance is offered to
// row i's list and to row j's, as SquaredL2 gives d(i,j) and d(j,i) the same
// bits. A distance reaches a list's Push unless it exceeds the worst one
// the list retains, the admission rule of the block scans. Workers take row
// tiles I in turn, each into private lists over all n rows, and the lists
// are merged row by row at the end. A TopK keeps the first k of its
// candidates in (distance, index) order whatever order they arrive in, so
// row i lists exactly the k rows a scan of SquaredL2(row i, row j) over
// every j ≠ i in index order keeps, on any number of workers — for rows
// whose distances are never NaN, as the validated rows of an index are not.
func BuildMatrix(base *dataset.Dataset, k int) *Matrix {
	n := base.N
	if k <= 0 || k >= n {
		panic(fmt.Sprintf("knn: BuildMatrix k=%d out of range for n=%d", k, n))
	}
	ids := iota32(n)
	tiles := (n + joinTile - 1) / joinTile
	lists := make([][]vecmath.TopK, min(par.Workers(), tiles*(tiles+1)/2))
	var next atomic.Int64
	par.ForChunksMin(len(lists), 1, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			tks := vecmath.NewTopKs(n, k)
			for ti := int(next.Add(1) - 1); ti < tiles; ti = int(next.Add(1) - 1) {
				selfJoin(tks, base, ids, ti)
			}
			lists[w] = tks
		}
	})
	out, rest := lists[0], lists[1:]
	flat := make([]int32, n*k)
	nbrs := make([][]int32, n)
	par.ForChunks(n, func(lo, hi int) {
		spill := make([]vecmath.Neighbor, 0, k)
		for r := lo; r < hi; r++ {
			for _, tks := range rest {
				spill = tks[r].AppendSorted(spill[:0])
				for _, nb := range spill {
					out[r].Push(nb.Index, nb.Dist)
				}
			}
			nbrs[r] = appendIDs(flat[r*k:r*k:r*k+k], out[r].AppendSorted(spill[:0]))
		}
	})
	return &Matrix{K: k, Neighbors: nbrs}
}

// selfJoin scores the pairs (i, j), j > i, of base's rows whose row i lies
// in tile ti — against tile ti itself and every tile after it — and offers
// each distance to row i's list and to row j's.
func selfJoin(tks []vecmath.TopK, base *dataset.Dataset, ids []int32, ti int) {
	var buf [joinTile]float32
	i1 := min(ti*joinTile+joinTile, base.N)
	for tj := ti; tj*joinTile < base.N; tj++ {
		j1 := min(tj*joinTile+joinTile, base.N)
		for i := ti * joinTile; i < i1; i++ {
			j0 := max(tj*joinTile, i+1)
			if j0 >= j1 {
				continue
			}
			dist := buf[:j1-j0]
			vecmath.SquaredL2Rows(dist, base.Row(i), base.Data, base.Dim, ids[j0:j1])
			tk := &tks[i]
			worst, full := tk.Worst()
			for x, d := range dist {
				j := j0 + x
				if !full || !(d > worst) {
					tk.Push(j, d)
					worst, full = tk.Worst()
				}
				if w, f := tks[j].Worst(); !f || !(d > w) {
					tks[j].Push(i, d)
				}
			}
		}
	}
}

// GroundTruth computes, for each query, the indices of its k true nearest
// neighbors in base (ascending distance; all of base when k exceeds it).
// Used to score every method's k-NN accuracy. Queries are taken a joinTile
// tile at a time against each joinTile tile of base, scored by
// SquaredL2Rows and admitted as in BuildMatrix, so each list is exactly
// the one a scan of SquaredL2(query, row) over every row in index order
// keeps.
func GroundTruth(base, queries *dataset.Dataset, k int) [][]int32 {
	if k <= 0 {
		panic(fmt.Sprintf("knn: GroundTruth k=%d must be positive", k))
	}
	if queries.N > 0 && queries.Dim != base.Dim {
		panic(fmt.Sprintf("knn: GroundTruth queries of dim %d against base of dim %d", queries.Dim, base.Dim))
	}
	ids := iota32(base.N)
	kk := min(k, base.N)
	out := make([][]int32, queries.N)
	par.ForChunks(queries.N, func(lo, hi int) {
		flat := make([]int32, (hi-lo)*kk)
		tks := vecmath.NewTopKs(min(hi-lo, joinTile), k)
		var buf [joinTile]float32
		var sorted []vecmath.Neighbor
		for q0 := lo; q0 < hi; q0 += joinTile {
			q1 := min(q0+joinTile, hi)
			for j0 := 0; j0 < base.N; j0 += joinTile {
				cand := ids[j0:min(j0+joinTile, base.N)]
				for q := q0; q < q1; q++ {
					dist := buf[:len(cand)]
					vecmath.SquaredL2Rows(dist, queries.Row(q), base.Data, base.Dim, cand)
					tk := &tks[q-q0]
					worst, full := tk.Worst()
					for x, d := range dist {
						if !full || !(d > worst) {
							tk.Push(int(cand[x]), d)
							worst, full = tk.Worst()
						}
					}
				}
			}
			for q := q0; q < q1; q++ {
				o := (q - lo) * kk
				sorted = tks[q-q0].AppendSorted(sorted[:0])
				out[q] = appendIDs(flat[o:o:o+kk], sorted)
			}
		}
	})
	return out
}

// appendIDs appends the indices of ns to dst.
func appendIDs(dst []int32, ns []vecmath.Neighbor) []int32 {
	for _, nb := range ns {
		dst = append(dst, int32(nb.Index))
	}
	return dst
}

// iota32 returns the ids 0, 1, …, n−1: the rows of a tile are a subslice.
func iota32(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// Recall computes the k-NN accuracy of Eq. 1: the fraction of the true
// neighbors present among the returned indices.
func Recall(returned []int, truth []int32) float64 {
	if len(truth) == 0 {
		return 0
	}
	set := make(map[int32]struct{}, len(returned))
	for _, r := range returned {
		set[int32(r)] = struct{}{}
	}
	hit := 0
	for _, t := range truth {
		if _, ok := set[t]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// RecallNeighbors is Recall over a []vecmath.Neighbor result.
func RecallNeighbors(returned []vecmath.Neighbor, truth []int32) float64 {
	ids := make([]int, len(returned))
	for i, n := range returned {
		ids[i] = n.Index
	}
	return Recall(ids, truth)
}
