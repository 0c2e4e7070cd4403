// Package dataset provides the vector collections the experiments run on:
// a compact flat storage type, synthetic generators standing in for the
// paper's SIFT1M and MNIST benchmarks (see DESIGN.md for the substitution
// rationale), the 2-D clustering toys of Table 5, and fvecs file IO so
// the real ann-benchmarks files can be dropped in when available.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/vecmath"
)

// Dataset is a collection of n vectors of equal dimension stored row-major
// in one contiguous allocation.
type Dataset struct {
	N, Dim int
	Data   []float32 // len == N*Dim
	// SqNorms caches ‖row‖² per row once EnsureSqNorms has been called; it
	// feeds the fused distance kernel (vecmath.SquaredL2Fused) on the query
	// hot path. Append keeps it extended; mutating rows in place after the
	// cache is built invalidates it — call EnsureSqNorms(true) to rebuild.
	SqNorms []float32
}

// New allocates a zeroed dataset of n vectors with dim dimensions.
func New(n, dim int) *Dataset {
	if n < 0 || dim <= 0 {
		panic(fmt.Sprintf("dataset: invalid shape n=%d dim=%d", n, dim))
	}
	return &Dataset{N: n, Dim: dim, Data: make([]float32, n*dim)}
}

// Row returns a mutable view of vector i.
func (d *Dataset) Row(i int) []float32 {
	return d.Data[i*d.Dim : (i+1)*d.Dim : (i+1)*d.Dim]
}

// Rows materializes all vectors as a slice of views (no copying).
func (d *Dataset) Rows() [][]float32 {
	out := make([][]float32, d.N)
	for i := range out {
		out[i] = d.Row(i)
	}
	return out
}

// Subset copies the selected rows into a new Dataset.
func (d *Dataset) Subset(indices []int) *Dataset {
	out := New(len(indices), d.Dim)
	for i, idx := range indices {
		copy(out.Row(i), d.Row(idx))
	}
	return out
}

// Transposed returns rows [lo, hi) as one dimension-major array: coordinate
// j of row lo+r at [j*(hi-lo)+r]. It is the layout vecmath.SegmentToCentroids
// reads, a codebook's (or a block of rows') "centroid-major" copy.
func (d *Dataset) Transposed(lo, hi int) []float32 {
	n := hi - lo
	t := make([]float32, n*d.Dim)
	for r := 0; r < n; r++ {
		for j, v := range d.Row(lo + r) {
			t[j*n+r] = v
		}
	}
	return t
}

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	out := New(d.N, d.Dim)
	copy(out.Data, d.Data)
	return out
}

// Append adds a copy of vec (which must have length Dim) to the dataset,
// extending the squared-norm cache when one has been built.
func (d *Dataset) Append(vec []float32) {
	if len(vec) != d.Dim {
		panic("dataset: Append dimension mismatch")
	}
	d.Data = append(d.Data, vec...)
	d.N++
	if d.SqNorms != nil {
		d.SqNorms = append(d.SqNorms, sqNorm(vec))
	}
}

// EnsureSqNorms builds the per-row squared-norm cache if absent (or
// unconditionally when rebuild is true, after in-place row mutation).
func (d *Dataset) EnsureSqNorms(rebuild bool) {
	if d.SqNorms != nil && !rebuild && len(d.SqNorms) == d.N {
		return
	}
	// A cache of no rows is still built (non-nil), so Append extends it.
	if d.SqNorms == nil || cap(d.SqNorms) < d.N {
		d.SqNorms = make([]float32, d.N)
	}
	d.SqNorms = d.SqNorms[:d.N]
	for i := 0; i < d.N; i++ {
		d.SqNorms[i] = sqNorm(d.Row(i))
	}
}

// sqNorm computes ‖v‖² via vecmath.Dot(v, v) — the same kernel the fused
// distance uses for the query side — so cached norms are bit-identical to
// the query-side norm for equal vectors and self-distance is exactly zero.
func sqNorm(v []float32) float32 {
	return vecmath.Dot(v, v)
}

// FromRowsCopy copies a slice of equal-length vectors into a new Dataset.
func FromRowsCopy(rows [][]float32) *Dataset {
	if len(rows) == 0 {
		panic("dataset: FromRowsCopy needs at least one row")
	}
	out := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != out.Dim {
			panic("dataset: FromRowsCopy ragged rows")
		}
		copy(out.Row(i), r)
	}
	return out
}

// Labeled couples a dataset with integer class labels, used by the
// clustering experiments (Table 5) where synthetic ground truth exists.
type Labeled struct {
	*Dataset
	Labels []int
}

// SplitQueries removes nq random vectors from d to act as out-of-sample
// queries (the ann-benchmarks datasets ship disjoint query sets; synthetic
// data reproduces that by withholding). It returns the reduced training set
// and the query set.
func SplitQueries(d *Dataset, nq int, rng *rand.Rand) (train, queries *Dataset) {
	if nq <= 0 || nq >= d.N {
		panic(fmt.Sprintf("dataset: cannot split %d queries from %d points", nq, d.N))
	}
	perm := rng.Perm(d.N)
	queries = d.Subset(perm[:nq])
	train = d.Subset(perm[nq:])
	return train, queries
}

// GaussianMixtureConfig controls the synthetic clustered generator.
type GaussianMixtureConfig struct {
	N, Dim   int
	Clusters int
	// ClusterStd is the average per-axis standard deviation within a
	// cluster; each cluster gets anisotropic per-axis scales in
	// [0.25, 1.75]×ClusterStd so clusters are ellipsoidal, not spherical
	// (the regime where learned partitions beat K-means).
	ClusterStd float64
	// CenterBox is the half-width of the uniform cube cluster centers are
	// drawn from.
	CenterBox float64
	// NoiseFrac is the fraction of points drawn uniformly from the center
	// box instead of from a cluster (background clutter).
	NoiseFrac float64
}

// GaussianMixture draws a labeled sample from an anisotropic Gaussian
// mixture. Labels identify the generating cluster (noise points get label
// Clusters).
func GaussianMixture(cfg GaussianMixtureConfig, rng *rand.Rand) *Labeled {
	if cfg.Clusters <= 0 || cfg.N <= 0 {
		panic("dataset: GaussianMixture requires positive N and Clusters")
	}
	centers := New(cfg.Clusters, cfg.Dim)
	scales := make([][]float32, cfg.Clusters)
	for c := 0; c < cfg.Clusters; c++ {
		row := centers.Row(c)
		scales[c] = make([]float32, cfg.Dim)
		for j := 0; j < cfg.Dim; j++ {
			row[j] = float32((rng.Float64()*2 - 1) * cfg.CenterBox)
			scales[c][j] = float32((0.25 + 1.5*rng.Float64()) * cfg.ClusterStd)
		}
	}
	out := New(cfg.N, cfg.Dim)
	labels := make([]int, cfg.N)
	for i := 0; i < cfg.N; i++ {
		row := out.Row(i)
		if rng.Float64() < cfg.NoiseFrac {
			labels[i] = cfg.Clusters
			for j := range row {
				row[j] = float32((rng.Float64()*2 - 1) * cfg.CenterBox)
			}
			continue
		}
		c := rng.Intn(cfg.Clusters)
		labels[i] = c
		center := centers.Row(c)
		for j := range row {
			row[j] = center[j] + float32(rng.NormFloat64())*scales[c][j]
		}
	}
	return &Labeled{Dataset: out, Labels: labels}
}

// SIFTLike generates the stand-in for the SIFT1M benchmark: 128-dimensional
// vectors with multi-modal cluster structure and light background noise,
// shifted to the non-negative range like real SIFT descriptors.
func SIFTLike(n int, rng *rand.Rand) *Dataset {
	l := GaussianMixture(GaussianMixtureConfig{
		N: n, Dim: 128, Clusters: 64,
		ClusterStd: 2.2, CenterBox: 3, NoiseFrac: 0.1,
	}, rng)
	// Shift into the non-negative quadrant (SIFT descriptors are counts).
	for i := range l.Data {
		l.Data[i] += 3
		if l.Data[i] < 0 {
			l.Data[i] = 0
		}
	}
	return l.Dataset
}

// MNISTLike generates the stand-in for the MNIST benchmark: 784-dimensional
// sparse non-negative vectors where each of 10 classes occupies a distinct
// low-dimensional subspace (as digit images do).
func MNISTLike(n int, rng *rand.Rand) *Dataset {
	const dim, classes, active = 784, 10, 120
	// Each class activates a random subset of pixels with a class-specific
	// template plus per-sample variation.
	templates := make([][]float32, classes)
	supports := make([][]int, classes)
	for c := 0; c < classes; c++ {
		perm := rng.Perm(dim)
		supports[c] = perm[:active]
		templates[c] = make([]float32, active)
		for j := range templates[c] {
			templates[c][j] = float32(0.3 + 0.7*rng.Float64())
		}
	}
	out := New(n, dim)
	for i := 0; i < n; i++ {
		c := rng.Intn(classes)
		row := out.Row(i)
		for j, px := range supports[c] {
			v := templates[c][j] + float32(rng.NormFloat64())*0.15
			if v < 0 {
				v = 0
			}
			row[px] = v
		}
	}
	return out
}

// Moons generates scikit-learn's two interleaved half-circles, the standard
// non-convex clustering stress test used in Table 5.
func Moons(n int, noise float64, rng *rand.Rand) *Labeled {
	out := New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		row := out.Row(i)
		theta := rng.Float64() * math.Pi
		if i%2 == 0 {
			labels[i] = 0
			row[0] = float32(math.Cos(theta))
			row[1] = float32(math.Sin(theta))
		} else {
			labels[i] = 1
			row[0] = float32(1 - math.Cos(theta))
			row[1] = float32(0.5 - math.Sin(theta))
		}
		row[0] += float32(rng.NormFloat64() * noise)
		row[1] += float32(rng.NormFloat64() * noise)
	}
	return &Labeled{Dataset: out, Labels: labels}
}

// Circles generates scikit-learn's two concentric circles. factor is the
// radius ratio of the inner circle (0 < factor < 1).
func Circles(n int, factor, noise float64, rng *rand.Rand) *Labeled {
	if factor <= 0 || factor >= 1 {
		panic("dataset: Circles factor must be in (0,1)")
	}
	out := New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		row := out.Row(i)
		theta := rng.Float64() * 2 * math.Pi
		r := 1.0
		if i%2 == 1 {
			r = factor
			labels[i] = 1
		}
		row[0] = float32(r*math.Cos(theta) + rng.NormFloat64()*noise)
		row[1] = float32(r*math.Sin(theta) + rng.NormFloat64()*noise)
	}
	return &Labeled{Dataset: out, Labels: labels}
}

// Classification4 generates the 4-cluster variant of scikit-learn's
// make_classification used in Table 5: anisotropic, partially overlapping
// Gaussian clusters in 2-D.
func Classification4(n int, rng *rand.Rand) *Labeled {
	return GaussianMixture(GaussianMixtureConfig{
		N: n, Dim: 2, Clusters: 4,
		ClusterStd: 0.5, CenterBox: 3, NoiseFrac: 0,
	}, rng)
}

// Uniform generates n points uniformly from [-1, 1]^dim (a worst case for
// any data-dependent partitioner; used in ablations).
func Uniform(n, dim int, rng *rand.Rand) *Dataset {
	out := New(n, dim)
	for i := range out.Data {
		out.Data[i] = float32(rng.Float64()*2 - 1)
	}
	return out
}
