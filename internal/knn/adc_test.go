package knn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/quant"
	"repro/internal/vecmath"
)

// adcFixture trains a PQ on a mixture dataset and returns the flat codes
// plus a query's flat LUT, the raw ingredients of the ADC scan.
func adcFixture(t testing.TB, seed int64, n, dim, m, k int) (*dataset.Dataset, *quant.PQ, []uint8, []float32, []float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	base := dataset.GaussianMixture(dataset.GaussianMixtureConfig{
		N: n, Dim: dim, Clusters: 8, ClusterStd: 0.4, CenterBox: 3,
	}, rng).Dataset
	pq, err := quant.Train(base, quant.Config{Subspaces: m, K: k, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	codes, err := pq.EncodeInto(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float32, dim)
	for j := range q {
		q[j] = float32(rng.NormFloat64())
	}
	lut := pq.AppendLUT(nil, q)
	return base, pq, codes, lut, q
}

// lutDistance is the ADC distance summed in subspace order over a flat
// m×k table.
func lutDistance(lut []float32, k int, code []uint8) float32 {
	var d float32
	for s, c := range code {
		d += lut[s*k+int(c)]
	}
	return d
}

// TestSearchSubsetADCIntoMatchesLUTScan pins the ADC scan against an
// independent reference: a direct TopK pass over a sequential sum of the
// table entries. Ids must agree exactly and distances to the kernel
// equivalence tolerance.
func TestSearchSubsetADCIntoMatchesLUTScan(t *testing.T) {
	base, pq, codes, lut, _ := adcFixture(t, 41, 400, 16, 4, 16)
	rng := rand.New(rand.NewSource(42))
	tk := vecmath.NewTopK(1)
	ref := vecmath.NewTopK(1)
	var dst []vecmath.Neighbor
	for trial := 0; trial < 30; trial++ {
		nsub := 1 + rng.Intn(base.N)
		subset := make([]int32, 0, nsub)
		for _, i := range rng.Perm(base.N)[:nsub] {
			subset = append(subset, int32(i))
		}
		k := 1 + rng.Intn(12)
		dst, _ = SearchSubsetADCIntoCounted(dst[:0], codes, pq.Subspaces, pq.K, lut, subset, k, tk, nil)

		ref.SetK(k)
		for _, i := range subset {
			ref.Push(int(i), lutDistance(lut, pq.K, codes[int(i)*pq.Subspaces:(int(i)+1)*pq.Subspaces]))
		}
		want := ref.AppendSorted(nil)
		if len(dst) != len(want) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(dst), len(want))
		}
		for i := range want {
			if dst[i].Index != want[i].Index {
				// Equal ADC distances may swap ranks between summation
				// orders; anything beyond rounding is a bug.
				d := float64(dst[i].Dist - want[i].Dist)
				if d < 0 {
					d = -d
				}
				if d > 1e-4*(1+float64(want[i].Dist)) {
					t.Fatalf("trial %d result[%d]: id %d (dist %v), want id %d (dist %v)",
						trial, i, dst[i].Index, dst[i].Dist, want[i].Index, want[i].Dist)
				}
			}
		}
	}
}

// TestSearchSubsetADCIntoCountedSkipParity: the ADC scan's tombstone
// accounting must agree exactly with the float scan's on the same subset
// and skip set — the lifecycle swaps one scan for the other and its
// compaction heuristics read this counter.
func TestSearchSubsetADCIntoCountedSkipParity(t *testing.T) {
	base, pq, codes, lut, q := adcFixture(t, 43, 300, 16, 4, 16)
	base.EnsureSqNorms(true)
	rng := rand.New(rand.NewSource(44))
	tk := vecmath.NewTopK(1)
	for trial := 0; trial < 20; trial++ {
		var skip *bitset.Set
		for i := 0; i < base.N; i++ {
			if rng.Float64() < 0.25 {
				skip = skip.With(i)
			}
		}
		subset := make([]int32, 0, 250)
		for j := 0; j < 250; j++ {
			subset = append(subset, int32(rng.Intn(base.N)))
		}
		adcRes, adcSkipped := SearchSubsetADCIntoCounted(nil, codes, pq.Subspaces, pq.K, lut, subset, 10, tk, skip)
		floatRes, floatSkipped := SearchSubsetIntoCounted(nil, base, subset, q, 10, tk, skip)
		if adcSkipped != floatSkipped {
			t.Fatalf("trial %d: ADC skipped %d, float skipped %d", trial, adcSkipped, floatSkipped)
		}
		for _, nb := range adcRes {
			if skip.Has(nb.Index) {
				t.Fatalf("trial %d: tombstoned id %d in ADC results", trial, nb.Index)
			}
		}
		_ = floatRes
		_, skipped := SearchSubsetADCIntoCounted(nil, codes, pq.Subspaces, pq.K, lut, subset, 10, tk, nil)
		if skipped != 0 {
			t.Fatalf("trial %d: nil skip set reported %d skipped", trial, skipped)
		}
	}
}

func TestSearchSubsetADCIntoAllocs(t *testing.T) {
	_, pq, codes, lut, _ := adcFixture(t, 45, 500, 16, 4, 16)
	subset := make([]int32, 500)
	for i := range subset {
		subset[i] = int32(i)
	}
	tk := vecmath.NewTopK(10)
	dst := make([]vecmath.Neighbor, 0, 10)
	dst, _ = SearchSubsetADCIntoCounted(dst[:0], codes, pq.Subspaces, pq.K, lut, subset, 10, tk, nil) // warm up
	allocs := testing.AllocsPerRun(100, func() {
		dst, _ = SearchSubsetADCIntoCounted(dst[:0], codes, pq.Subspaces, pq.K, lut, subset, 10, tk, nil)
	})
	if allocs != 0 {
		t.Fatalf("SearchSubsetADCIntoCounted allocates %v per run", allocs)
	}
}

// perRowADCScan is the scan the block form replaced, kept as the reference:
// one LUTSum call and one Push per live candidate, in subset order.
func perRowADCScan(codes []uint8, m, kTab int, lut []float32, subset []int32, k int, skip *bitset.Set) ([]vecmath.Neighbor, int) {
	tk := vecmath.NewTopK(k)
	skipped := 0
	for _, i := range subset {
		if skip.Has(int(i)) {
			skipped++
			continue
		}
		tk.Push(int(i), vecmath.LUTSum(lut, kTab, codes[int(i)*m:(int(i)+1)*m]))
	}
	return tk.AppendSorted(nil), skipped
}

// TestBlockADCScanMatchesPerRowScan: ids, distance bits and the skipped
// count equal the per-row reference for subsets on either side of every
// block boundary, with and without tombstones, for real codes and for a
// code buffer holding only three distinct rows — there nearly every
// candidate ties with the worst retained distance, so the ids that survive
// at the top-R boundary are decided by the tie rule alone.
func TestBlockADCScanMatchesPerRowScan(t *testing.T) {
	base, pq, codes, lut, _ := adcFixture(t, 47, 700, 16, 4, 16)
	m := pq.Subspaces
	tied := make([]uint8, len(codes))
	for i := 0; i < base.N; i++ {
		copy(tied[i*m:(i+1)*m], codes[(i%3)*m:(i%3+1)*m])
	}
	rng := rand.New(rand.NewSource(48))
	var skip *bitset.Set
	for i := 0; i < base.N; i++ {
		if rng.Float64() < 0.3 {
			skip = skip.With(i)
		}
	}
	tk := vecmath.NewTopK(1)
	for _, buf := range [][]uint8{codes, tied} {
		for _, sk := range []*bitset.Set{nil, skip} {
			for _, n := range []int{0, 1, 2, scanBlock - 1, scanBlock, scanBlock + 1, 2*scanBlock + 37} {
				subset := make([]int32, n)
				for i := range subset {
					subset[i] = int32(rng.Intn(base.N))
				}
				for _, k := range []int{1, 10, 100, n + 5} {
					got, gotSkipped := SearchSubsetADCIntoCounted(nil, buf, m, pq.K, lut, subset, k, tk, sk)
					want, wantSkipped := perRowADCScan(buf, m, pq.K, lut, subset, k, sk)
					if gotSkipped != wantSkipped {
						t.Fatalf("n=%d k=%d: skipped %d, per-row scan %d", n, k, gotSkipped, wantSkipped)
					}
					if len(got) != len(want) {
						t.Fatalf("n=%d k=%d: %d results, per-row scan %d", n, k, len(got), len(want))
					}
					for i := range want {
						if got[i].Index != want[i].Index || math.Float32bits(got[i].Dist) != math.Float32bits(want[i].Dist) {
							t.Fatalf("n=%d k=%d result[%d]: %+v, per-row scan %+v", n, k, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
