// Package kmeans implements Lloyd's algorithm with k-means++ seeding and the
// K-means partitioning index used as a baseline throughout the paper's
// evaluation. Run is also what trains the engine's PQ codebooks
// (internal/quant) and IVF-PQ's coarse quantizer (internal/ivfpq).
package kmeans

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/par"
	"repro/internal/vecmath"
)

// Options configures a clustering run.
type Options struct {
	// MaxIters bounds Lloyd iterations (default 25).
	MaxIters int
	// Seed drives seeding and the re-seeding of empty clusters.
	Seed int64
	// Restarts runs the whole algorithm this many times with different
	// seeds and keeps the lowest-inertia result (default 1).
	Restarts int
}

func (o Options) withDefaults() Options {
	if o.MaxIters == 0 {
		o.MaxIters = 25
	}
	return o
}

// tol stops Lloyd early once an iteration lowers the objective by less than
// this fraction of it.
const tol = 1e-4

// Result holds fitted centroids and the assignment of every input point.
type Result struct {
	K         int
	Centroids *dataset.Dataset
	Assign    []int32
	// Inertia is the final sum of squared distances to assigned centroids.
	Inertia float64
}

// Run clusters ds into k groups.
func Run(ds *dataset.Dataset, k int, opt Options) (*Result, error) {
	if k <= 0 || k > ds.N {
		return nil, fmt.Errorf("kmeans: k=%d out of range for n=%d", k, ds.N)
	}
	if opt.Restarts > 1 {
		var best *Result
		for r := 0; r < opt.Restarts; r++ {
			o := opt
			o.Restarts = 1
			o.Seed = opt.Seed + int64(r)*6151
			res, err := Run(ds, k, o)
			if err != nil {
				return nil, err
			}
			if best == nil || res.Inertia < best.Inertia {
				best = res
			}
		}
		return best, nil
	}
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	cents := seedPlusPlus(ds, k, rng)
	assign := make([]int32, ds.N)
	prev := math.Inf(1)
	var inertia float64
	for iter := 0; iter < opt.MaxIters; iter++ {
		inertia = assignAll(ds, cents, assign)
		updateCentroids(ds, cents, assign, k, rng)
		if prev-inertia <= tol*prev {
			break
		}
		prev = inertia
	}
	inertia = assignAll(ds, cents, assign)
	return &Result{K: k, Centroids: cents, Assign: assign, Inertia: inertia}, nil
}

// seedPlusPlus performs k-means++ initialization (Arthur & Vassilvitskii).
// Each new centroid is scored against every row by vecmath.SegmentToCentroids
// over dimension-major blocks of the rows (the rows playing the centroids'
// part), with the bits of SquaredL2 up to 4 dimensions (7 under avx2-fma),
// as in assignAll.
func seedPlusPlus(ds *dataset.Dataset, k int, rng *rand.Rand) *dataset.Dataset {
	cents := dataset.New(k, ds.Dim)
	first := rng.Intn(ds.N)
	copy(cents.Row(0), ds.Row(first))
	blocks := make([][]float32, (ds.N+seedBlock-1)/seedBlock)
	for b := range blocks {
		blocks[b] = ds.Transposed(b*seedBlock, min((b+1)*seedBlock, ds.N))
	}
	d2 := make([]float64, ds.N)
	dist := make([]float32, ds.N)
	// score lowers d2 to the distance to centroid c (sets it, for c = 0).
	score := func(c int) {
		par.ForChunksMin(len(blocks), 2, func(lo, hi int) {
			for b := lo; b < hi; b++ {
				r0 := b * seedBlock
				d := dist[r0:min(r0+seedBlock, ds.N)]
				vecmath.SegmentToCentroids(d, cents.Row(c), blocks[b])
				for i, v := range d {
					if f := float64(v); c == 0 || f < d2[r0+i] {
						d2[r0+i] = f
					}
				}
			}
		})
	}
	score(0)
	for c := 1; c < k; c++ {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(ds.N) // all points coincide with centroids
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
		score(c)
	}
	return cents
}

// seedBlock is the number of rows per dimension-major block seedPlusPlus
// scores in one kernel call; blocks are what it splits across workers.
const seedBlock = 1024

// assignAll assigns each point to its nearest centroid and returns the
// objective. A row is scored against every centroid by one
// vecmath.SegmentToCentroids call over a centroid-major copy of cents, then
// vecmath.ArgMin picks the first nearest — the PQ encoder's kernel pair.
// Each distance is accumulated in coordinate order like SquaredL2's, and up
// to 4 dimensions (7 under avx2-fma) it has SquaredL2's bits, so there the
// assignment is the one the per-centroid SquaredL2 loop makes. Wider rows
// differ from that loop by float rounding only.
func assignAll(ds *dataset.Dataset, cents *dataset.Dataset, assign []int32) float64 {
	cbT := cents.Transposed(0, cents.N)
	return par.MapReduce(ds.N, func(lo, hi int) float64 {
		var local float64
		dist := make([]float32, cents.N)
		for i := lo; i < hi; i++ {
			vecmath.SegmentToCentroids(dist, ds.Row(i), cbT)
			bi := vecmath.ArgMin(dist)
			best := dist[bi]
			if !(best < math.MaxFloat32) {
				// Nothing below the loop's starting bound (or a NaN first
				// distance): take the loop's own answer.
				best, bi = firstBelowMax(dist)
			}
			assign[i] = int32(bi)
			local += float64(best)
		}
		return local
	}, func(a, b float64) float64 { return a + b })
}

// firstBelowMax is the assignment loop the kernels replace: the first index
// of the smallest distance below math.MaxFloat32, or index 0 at that bound
// when there is none.
func firstBelowMax(dist []float32) (float32, int) {
	best, bi := float32(math.MaxFloat32), 0
	for c, d := range dist {
		if d < best {
			best, bi = d, c
		}
	}
	return best, bi
}

// updateCentroids recomputes centroids as the means of their members;
// empty clusters are re-seeded at a random point.
func updateCentroids(ds *dataset.Dataset, cents *dataset.Dataset, assign []int32, k int, rng *rand.Rand) {
	acc := make([]float64, k*ds.Dim)
	counts := make([]int, k)
	for i := 0; i < ds.N; i++ {
		c := int(assign[i])
		counts[c]++
		row := ds.Row(i)
		base := c * ds.Dim
		for j, v := range row {
			acc[base+j] += float64(v)
		}
	}
	for c := 0; c < k; c++ {
		crow := cents.Row(c)
		if counts[c] == 0 {
			copy(crow, ds.Row(rng.Intn(ds.N)))
			continue
		}
		inv := 1 / float64(counts[c])
		base := c * ds.Dim
		for j := range crow {
			crow[j] = float32(acc[base+j] * inv)
		}
	}
}

// NearestK returns the indices of the mPrime closest centroids to q in
// ascending distance order.
func (r *Result) NearestK(q []float32, mPrime int) []int {
	tk := vecmath.NewTopK(minInt(mPrime, r.Centroids.N))
	for c := 0; c < r.Centroids.N; c++ {
		tk.Push(c, vecmath.SquaredL2(q, r.Centroids.Row(c)))
	}
	sorted := tk.Sorted()
	out := make([]int, len(sorted))
	for i, nb := range sorted {
		out[i] = nb.Index
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Index is the K-means space-partitioning baseline: points are bucketed by
// nearest centroid and queries probe the mPrime nearest centroids' buckets.
type Index struct {
	Result *Result
	Bins   [][]int32
}

// NewIndex clusters ds and builds the inverted bin lists.
func NewIndex(ds *dataset.Dataset, k int, opt Options) (*Index, error) {
	res, err := Run(ds, k, opt)
	if err != nil {
		return nil, err
	}
	bins := make([][]int32, k)
	for i, c := range res.Assign {
		bins[c] = append(bins[c], int32(i))
	}
	return &Index{Result: res, Bins: bins}, nil
}

// Candidates implements the shared candidate-source contract.
func (ix *Index) Candidates(q []float32, mPrime int) []int {
	var out []int
	for _, c := range ix.Result.NearestK(q, mPrime) {
		for _, i := range ix.Bins[c] {
			out = append(out, int(i))
		}
	}
	return out
}
