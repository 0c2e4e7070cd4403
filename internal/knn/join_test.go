package knn

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vecmath"
)

// referenceMatrix is the k′-NN matrix as BuildMatrix computed it before the
// self-join: for every row i, one TopK fed SquaredL2(row i, row j) for
// every j ≠ i in ascending order.
func referenceMatrix(base *dataset.Dataset, k int) [][]int32 {
	nbrs := make([][]int32, base.N)
	tk := vecmath.NewTopK(k)
	for i := range nbrs {
		for j := 0; j < base.N; j++ {
			if j != i {
				tk.Push(j, vecmath.SquaredL2(base.Row(i), base.Row(j)))
			}
		}
		nbrs[i] = neighborIDs(tk.Sorted())
	}
	return nbrs
}

// referenceGroundTruth is GroundTruth as it was before the tiled join: one
// Search per query.
func referenceGroundTruth(base, queries *dataset.Dataset, k int) [][]int32 {
	out := make([][]int32, queries.N)
	for q := range out {
		out[q] = neighborIDs(Search(base, queries.Row(q), k))
	}
	return out
}

func neighborIDs(ns []vecmath.Neighbor) []int32 {
	ids := make([]int32, len(ns))
	for x, nb := range ns {
		ids[x] = int32(nb.Index)
	}
	return ids
}

// withDuplicates returns n rows of dimension dim where every third row
// repeats an earlier one, so exact ties land at and around rank k′ of many
// lists and only the index order decides them.
func withDuplicates(rng *rand.Rand, n, dim int) *dataset.Dataset {
	ds := dataset.Uniform(n, dim, rng)
	for i := 2; i < n; i += 3 {
		copy(ds.Row(i), ds.Row(rng.Intn(i)))
	}
	return ds
}

// TestBuildMatrixMatchesReference pins the self-join to the per-row loop it
// replaced, list for list: row counts below one tile, exactly one, one
// past it and three tiles and five rows, data with duplicated rows (so
// ties fall at rank k′), k′ = 1, a middling k′ and k′ = n−1, on one worker
// and on two.
func TestBuildMatrixMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{2, 37, joinTile, joinTile + 1, 3*joinTile + 5} {
		for _, dim := range []int{3, 17} {
			for _, dup := range []bool{false, true} {
				base := dataset.Uniform(n, dim, rng)
				if dup {
					base = withDuplicates(rng, n, dim)
				}
				for _, k := range slices.Compact([]int{1, min(10, n-1), n - 1}) {
					want := referenceMatrix(base, k)
					for _, procs := range []int{1, 2} {
						runtime.GOMAXPROCS(procs)
						m := BuildMatrix(base, k)
						if m.K != k || len(m.Neighbors) != n {
							t.Fatalf("n=%d k=%d: K=%d with %d rows", n, k, m.K, len(m.Neighbors))
						}
						for i, row := range m.Neighbors {
							if !slices.Equal(row, want[i]) {
								t.Fatalf("n=%d dim=%d dup=%v k=%d procs=%d: row %d = %v, reference %v", n, dim, dup, k, procs, i, row, want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestGroundTruthMatchesReference pins the tiled ground truth to one Search
// per query, list for list: base and query counts on both sides of a tile,
// duplicated base rows and queries that are base rows (exact ties and
// zero distances), k = 1, k = 10 and k beyond the base size, on one worker
// and on two.
func TestGroundTruthMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 37, joinTile, joinTile + 1, 3*joinTile + 5} {
		for _, nq := range []int{0, 1, joinTile + 3, 1100} {
			base := withDuplicates(rng, n, 9)
			queries := dataset.Uniform(nq, 9, rng)
			for q := 0; q < nq; q += 4 {
				copy(queries.Row(q), base.Row(rng.Intn(n)))
			}
			for _, k := range []int{1, 10, n + 2} {
				want := referenceGroundTruth(base, queries, k)
				for _, procs := range []int{1, 2} {
					runtime.GOMAXPROCS(procs)
					got := GroundTruth(base, queries, k)
					if len(got) != nq {
						t.Fatalf("n=%d nq=%d k=%d: %d lists", n, nq, k, len(got))
					}
					for q := range got {
						if !slices.Equal(got[q], want[q]) {
							t.Fatalf("n=%d nq=%d k=%d procs=%d: query %d = %v, reference %v", n, nq, k, procs, q, got[q], want[q])
						}
					}
				}
			}
		}
	}
}

// BenchmarkBuildMatrix times the k′-NN matrix on float_small's shape:
// 8 000 rows of dimension 128, k′ = 10.
func BenchmarkBuildMatrix(b *testing.B) {
	const n, dim, k = 8000, 128, 10
	base := dataset.Uniform(n, dim, rand.New(rand.NewSource(43)))
	b.Run(fmt.Sprintf("n%d/dim%d/k%d", n, dim, k), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BuildMatrix(base, k)
		}
	})
}
