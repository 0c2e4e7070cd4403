package knn

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/vecmath"
)

func TestSearchSubsetIntoMatchesSearchSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := dataset.GaussianMixture(dataset.GaussianMixtureConfig{
		N: 400, Dim: 16, Clusters: 8, ClusterStd: 0.5, CenterBox: 3,
	}, rng).Dataset

	base.EnsureSqNorms(true)
	tk := vecmath.NewTopK(1)
	var dst []vecmath.Neighbor
	for trial := 0; trial < 50; trial++ {
		q := base.Row(rng.Intn(base.N))
		nsub := 1 + rng.Intn(base.N)
		subset := make([]int, 0, nsub)
		subset32 := make([]int32, 0, nsub)
		for _, i := range rng.Perm(base.N)[:nsub] {
			subset = append(subset, i)
			subset32 = append(subset32, int32(i))
		}
		k := 1 + rng.Intn(12)
		want := SearchSubset(base, subset, q, k)
		dst = SearchSubsetInto(dst[:0], base, subset32, q, k, tk, nil)
		if len(want) != len(dst) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(dst), len(want))
		}
		for i := range want {
			if want[i].Index != dst[i].Index {
				t.Fatalf("trial %d: result[%d] id %d, want %d",
					trial, i, dst[i].Index, want[i].Index)
			}
			diff := float64(want[i].Dist - dst[i].Dist)
			if diff < 0 {
				diff = -diff
			}
			if diff > 1e-3*float64(want[i].Dist)+1e-4 {
				t.Fatalf("trial %d: result[%d] dist %v, want %v",
					trial, i, dst[i].Dist, want[i].Dist)
			}
		}
	}
}

func TestSearchSubsetIntoSelfQueryIsExactZero(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	base := dataset.Uniform(100, 32, rng)
	base.EnsureSqNorms(false)
	tk := vecmath.NewTopK(1)
	subset := make([]int32, base.N)
	for i := range subset {
		subset[i] = int32(i)
	}
	for qi := 0; qi < base.N; qi += 7 {
		ns := SearchSubsetInto(nil, base, subset, base.Row(qi), 1, tk, nil)
		if ns[0].Index != qi || ns[0].Dist != 0 {
			t.Fatalf("self query %d returned %+v (fused self-distance must be exactly 0)", qi, ns[0])
		}
	}
}

// TestSearchSubsetIntoSkipsTombstones checks the epoch-lifecycle contract:
// ids in the skip set never appear in results, the survivors match a scan of
// the manually filtered subset.
func TestSearchSubsetIntoSkipsTombstones(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	base := dataset.Uniform(300, 8, rng)
	base.EnsureSqNorms(true)
	tk := vecmath.NewTopK(1)
	var dst []vecmath.Neighbor
	for trial := 0; trial < 30; trial++ {
		var skip *bitset.Set
		kept := make([]int32, 0, base.N)
		for i := 0; i < base.N; i++ {
			if rng.Float64() < 0.3 {
				skip = skip.With(i)
			} else {
				kept = append(kept, int32(i))
			}
		}
		all := make([]int32, base.N)
		for i := range all {
			all[i] = int32(i)
		}
		q := base.Row(rng.Intn(base.N))
		dst = SearchSubsetInto(dst[:0], base, all, q, 10, tk, skip)
		want := SearchSubsetInto(nil, base, kept, q, 10, tk, nil)
		if len(dst) != len(want) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(dst), len(want))
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("trial %d: result[%d] %+v, want %+v",
					trial, i, dst[i], want[i])
			}
			if skip.Has(dst[i].Index) {
				t.Fatalf("tombstoned id %d returned", dst[i].Index)
			}
		}
	}
}

// TestSearchSubsetIntoCountedSkipAccounting: the counted variant must
// report exactly the number of subset entries present in the skip set
// (duplicates counted per occurrence), and zero when no skip set is given.
func TestSearchSubsetIntoCountedSkipAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	base := dataset.Uniform(200, 8, rng)
	base.EnsureSqNorms(true)
	tk := vecmath.NewTopK(1)
	for trial := 0; trial < 20; trial++ {
		var skip *bitset.Set
		for i := 0; i < base.N; i++ {
			if rng.Float64() < 0.25 {
				skip = skip.With(i)
			}
		}
		// Subset with duplicates: each occurrence of a tombstoned id is
		// separately gathered work, so each occurrence counts.
		subset := make([]int32, 0, 300)
		wantSkipped := 0
		for j := 0; j < 300; j++ {
			id := rng.Intn(base.N)
			subset = append(subset, int32(id))
			if skip.Has(id) {
				wantSkipped++
			}
		}
		q := base.Row(rng.Intn(base.N))
		_, skipped := SearchSubsetIntoCounted(nil, base, subset, q, 5, tk, skip)
		if skipped != wantSkipped {
			t.Fatalf("trial %d: skipped %d, want %d", trial, skipped, wantSkipped)
		}
		_, skipped = SearchSubsetIntoCounted(nil, base, subset, q, 5, tk, nil)
		if skipped != 0 {
			t.Fatalf("trial %d: nil skip set reported %d skipped", trial, skipped)
		}
	}
}

func TestSearchSubsetIntoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := dataset.Uniform(500, 32, rng)
	base.EnsureSqNorms(false)
	subset := make([]int32, base.N)
	for i := range subset {
		subset[i] = int32(i)
	}
	q := base.Row(0)
	tk := vecmath.NewTopK(10)
	dst := make([]vecmath.Neighbor, 0, 10)
	dst = SearchSubsetInto(dst[:0], base, subset, q, 10, tk, nil) // warm up
	allocs := testing.AllocsPerRun(100, func() {
		dst = SearchSubsetInto(dst[:0], base, subset, q, 10, tk, nil)
	})
	if allocs != 0 {
		t.Fatalf("SearchSubsetInto allocates %v per run", allocs)
	}
}

// perRowFloatScan is the scan the block form replaced, kept as the
// reference: one distance call and one Push per live candidate, in subset
// order — SquaredL2Fused against the norm cache.
func perRowFloatScan(base *dataset.Dataset, subset []int32, q []float32, k int, skip *bitset.Set) ([]vecmath.Neighbor, int) {
	tk := vecmath.NewTopK(k)
	qNorm := vecmath.Dot(q, q)
	skipped := 0
	for _, i := range subset {
		if skip.Has(int(i)) {
			skipped++
			continue
		}
		tk.Push(int(i), vecmath.SquaredL2Fused(q, base.Row(int(i)), qNorm, base.SqNorms[i]))
	}
	return tk.AppendSorted(nil), skipped
}

// TestBlockFloatScanMatchesPerRowScan: ids, distance bits and the skipped
// count equal the per-row reference for subsets on either side of every
// block boundary, with and without tombstones, for k up to beyond the subset, for a dimension with a scalar tail,
// and for a dataset holding only three distinct rows — there nearly every
// candidate ties with the worst retained distance, so the ids that survive
// at the cut are decided by the tie rule alone.
func TestBlockFloatScanMatchesPerRowScan(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const n, dim = 700, 19
	real := dataset.Uniform(n, dim, rng)
	tied := dataset.New(n, dim)
	for i := 0; i < n; i++ {
		copy(tied.Row(i), real.Row(i%3))
	}
	var skip *bitset.Set
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.3 {
			skip = skip.With(i)
		}
	}
	tk := vecmath.NewTopK(1)
	for _, base := range []*dataset.Dataset{real, tied} {
		base.EnsureSqNorms(true)
		for _, sk := range []*bitset.Set{nil, skip} {
			for _, ns := range []int{0, 1, 2, scanBlock - 1, scanBlock, scanBlock + 1, 2*scanBlock + 37} {
				subset := make([]int32, ns)
				for i := range subset {
					subset[i] = int32(rng.Intn(n))
				}
				q := real.Row(rng.Intn(n)) // a stored row: one candidate may be at distance 0
				for _, k := range []int{1, 10, 100, ns + 5} {
					got, gotSkipped := SearchSubsetIntoCounted(nil, base, subset, q, k, tk, sk)
					want, wantSkipped := perRowFloatScan(base, subset, q, k, sk)
					if gotSkipped != wantSkipped {
						t.Fatalf("n=%d k=%d: skipped %d, per-row scan %d", ns, k, gotSkipped, wantSkipped)
					}
					if len(got) != len(want) {
						t.Fatalf("n=%d k=%d: %d results, per-row scan %d", ns, k, len(got), len(want))
					}
					for i := range want {
						if got[i].Index != want[i].Index || math.Float32bits(got[i].Dist) != math.Float32bits(want[i].Dist) {
							t.Fatalf("n=%d k=%d result[%d]: %+v, per-row scan %+v", ns, k, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// firstK sorts ns by (distance, id) and returns its first k: the answer a
// scan must give whatever order its candidates arrive in.
func firstK(ns []vecmath.Neighbor, k int) []vecmath.Neighbor {
	slices.SortFunc(ns, func(a, b vecmath.Neighbor) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		return cmp.Compare(a.Index, b.Index)
	})
	return ns[:min(k, len(ns))]
}

// TestBlockScansBreakTiesByID feeds both block scans a candidate list in
// descending id order over rows (and codes) that repeat in groups of four,
// so every k below falls inside a group of equal distances: each scan must
// keep the lowest ids of the group at the cut, as the answer over the same
// candidates in any other order does.
func TestBlockScansBreakTiesByID(t *testing.T) {
	const n, dim, group = 600, 8, 4
	rng := rand.New(rand.NewSource(53))
	distinct := dataset.Uniform(n/group, dim, rng)
	base := dataset.New(n, dim)
	for i := 0; i < n; i++ {
		copy(base.Row(i), distinct.Row(i/group))
	}
	base.EnsureSqNorms(true)
	const m, kTab = 4, 16
	codes := make([]uint8, n*m)
	for i := 0; i < n; i += group {
		for s := 0; s < m; s++ {
			codes[i*m+s] = uint8(rng.Intn(kTab))
		}
		for j := 1; j < group; j++ {
			copy(codes[(i+j)*m:(i+j+1)*m], codes[i*m:(i+1)*m])
		}
	}
	lut := make([]float32, m*kTab)
	for i := range lut {
		lut[i] = float32(rng.Intn(8)) // small integers: many groups tie too
	}
	subset := make([]int32, n)
	for i := range subset {
		subset[i] = int32(n - 1 - i)
	}
	q := distinct.Row(0)
	qNorm := vecmath.Dot(q, q)
	floatAll := make([]vecmath.Neighbor, n)
	adcAll := make([]vecmath.Neighbor, n)
	for i := 0; i < n; i++ {
		floatAll[i] = vecmath.Neighbor{Index: i, Dist: vecmath.SquaredL2Fused(q, base.Row(i), qNorm, base.SqNorms[i])}
		adcAll[i] = vecmath.Neighbor{Index: i, Dist: vecmath.LUTSum(lut, kTab, codes[i*m:(i+1)*m])}
	}
	tk := vecmath.NewTopK(1)
	for _, k := range []int{1, 3, 6, 10, 301} {
		got, _ := SearchSubsetIntoCounted(nil, base, subset, q, k, tk, nil)
		if want := firstK(floatAll, k); !slices.Equal(got, want) {
			t.Fatalf("float scan k=%d: %v, want %v", k, got, want)
		}
		got, _ = SearchSubsetADCIntoCounted(nil, codes, m, kTab, lut, subset, k, tk, nil)
		if want := firstK(adcAll, k); !slices.Equal(got, want) {
			t.Fatalf("ADC scan k=%d: %v, want %v", k, got, want)
		}
	}
}
