// Package knn implements exact k-nearest-neighbor computation: brute-force
// single queries, batched all-pairs construction of the k′-NN matrix the
// offline phase needs (Fig. 2 of the paper), ground-truth generation for
// query sets, and the k-NN accuracy metric (Eq. 1).
package knn

import (
	"fmt"

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

// BuildMatrix computes the exact k′-NN matrix by blocked brute force,
// parallelized over points. This is the paper's only preprocessing step.
func BuildMatrix(base *dataset.Dataset, k int) *Matrix {
	if k <= 0 || k >= base.N {
		panic(fmt.Sprintf("knn: BuildMatrix k=%d out of range for n=%d", k, base.N))
	}
	nbrs := make([][]int32, base.N)
	par.ForChunks(base.N, func(lo, hi int) {
		tk := vecmath.NewTopK(k)
		for i := lo; i < hi; i++ {
			q := base.Row(i)
			tk.Reset()
			for j := 0; j < base.N; j++ {
				if j == i {
					continue
				}
				tk.Push(j, vecmath.SquaredL2(q, base.Row(j)))
			}
			sorted := tk.Sorted()
			row := make([]int32, len(sorted))
			for x, nb := range sorted {
				row[x] = int32(nb.Index)
			}
			nbrs[i] = row
		}
	})
	return &Matrix{K: k, Neighbors: nbrs}
}

// GroundTruth computes, for each query, the indices of its k true nearest
// neighbors in base (ascending distance). Used to score every method's
// k-NN accuracy.
func GroundTruth(base, queries *dataset.Dataset, k int) [][]int32 {
	out := make([][]int32, queries.N)
	par.ForChunks(queries.N, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ns := Search(base, queries.Row(i), k)
			row := make([]int32, len(ns))
			for x, nb := range ns {
				row[x] = int32(nb.Index)
			}
			out[i] = row
		}
	})
	return out
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
