package kmeans

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vecmath"
)

// squaredL2Assign is the assignment loop assignAll replaced: one SquaredL2
// call per centroid, the first strictly smaller distance below
// math.MaxFloat32 winning.
func squaredL2Assign(ds, cents *dataset.Dataset, assign []int32) float64 {
	var total float64
	for i := 0; i < ds.N; i++ {
		best, bi := float32(math.MaxFloat32), 0
		for c := 0; c < cents.N; c++ {
			if d := vecmath.SquaredL2(ds.Row(i), cents.Row(c)); d < best {
				best, bi = d, c
			}
		}
		assign[i] = int32(bi)
		total += float64(best)
	}
	return total
}

// TestAssignAllMatchesSquaredL2Loop pins the kernel assignment to the
// SquaredL2 loop bit for bit at the sub-dimensions where their distances
// share bits (1–4 under every dispatch): the same centroid for every row,
// ties (duplicated centroids, coincident rows) and distances that overflow
// to +Inf included, and the same objective. The rows are few enough that
// the objective is one chunk's sum under any GOMAXPROCS.
func TestAssignAllMatchesSquaredL2Loop(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for dim := 1; dim <= 4; dim++ {
		for _, k := range []int{1, 2, 7, 8, 9, 33, 256} {
			for _, scale := range []float64{1, 1e19} { // 1e19² overflows float32
				ds := dataset.New(600, dim)
				for i := range ds.Data {
					ds.Data[i] = float32(rng.NormFloat64() * scale)
				}
				cents := dataset.New(k, dim)
				for c := 0; c < k; c++ {
					copy(cents.Row(c), ds.Row(rng.Intn(ds.N)))
				}
				if k > 2 {
					copy(cents.Row(k-1), cents.Row(1)) // a tie: the first copy must win
				}
				got, want := make([]int32, ds.N), make([]int32, ds.N)
				gi, wi := assignAll(ds, cents, got), squaredL2Assign(ds, cents, want)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("dim %d k %d scale %g row %d: kernel assigns %d, SquaredL2 loop %d", dim, k, scale, i, got[i], want[i])
					}
				}
				if math.Float64bits(gi) != math.Float64bits(wi) {
					t.Fatalf("dim %d k %d scale %g: objective %v, SquaredL2 loop %v", dim, k, scale, gi, wi)
				}
			}
		}
	}
}

// squaredL2Seed is the k-means++ seeding seedPlusPlus replaced: one
// SquaredL2 call per row for each new centroid.
func squaredL2Seed(ds *dataset.Dataset, k int, rng *rand.Rand) *dataset.Dataset {
	cents := dataset.New(k, ds.Dim)
	copy(cents.Row(0), ds.Row(rng.Intn(ds.N)))
	d2 := make([]float64, ds.N)
	for i := range d2 {
		d2[i] = float64(vecmath.SquaredL2(ds.Row(i), cents.Row(0)))
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(ds.N)
		} else {
			r := rng.Float64() * total
			for i, d := range d2 {
				r -= d
				if r <= 0 {
					pick = i
					break
				}
			}
		}
		copy(cents.Row(c), ds.Row(pick))
		for i := range d2 {
			if d := float64(vecmath.SquaredL2(ds.Row(i), cents.Row(c))); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return cents
}

// TestSeedingMatchesSquaredL2Loop pins the kernel seeding to the SquaredL2
// loop at dimensions 1–4: the same centroids from the same seed, over row
// counts either side of the 1024-row block (so blocks split across workers)
// and on a dataset of coincident points.
func TestSeedingMatchesSquaredL2Loop(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for dim := 1; dim <= 4; dim++ {
		for _, n := range []int{5, 1023, 1024, 2500} {
			ds := dataset.New(n, dim)
			if n != 5 {
				for i := range ds.Data {
					ds.Data[i] = float32(rng.NormFloat64())
				}
			}
			k := min(n, 64)
			got := seedPlusPlus(ds, k, rand.New(rand.NewSource(int64(n))))
			want := squaredL2Seed(ds, k, rand.New(rand.NewSource(int64(n))))
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("dim %d n %d: centroid %d differs from the SquaredL2 loop's", dim, n, i/dim)
				}
			}
		}
	}
}
