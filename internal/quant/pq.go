// Package quant implements product quantization and the score-aware
// anisotropic vector quantization of ScaNN (Guo et al. 2020), plus the
// two-stage ScaNN search pipeline (quantized first-pass scoring with ADC
// lookup tables, exact re-ranking) that Fig. 7 of the paper composes with
// different partitioners. The engine and the baselines share one ADC path:
// flat codes from EncodeInto or AppendCode, flat tables from AppendLUT or
// AppendLUTBatch, and distances from vecmath.LUTSum.
package quant

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/dataset"
	"repro/internal/kmeans"
	"repro/internal/par"
	"repro/internal/vecmath"
)

// Config controls codebook training.
type Config struct {
	// Subspaces is the number of PQ blocks M. It must divide Dim exactly.
	Subspaces int
	// Codebook size per subspace (≤ 256; default 16).
	K int
	// Iters of (weighted) Lloyd refinement (default 15).
	Iters int
	// Anisotropic enables ScaNN's score-aware loss: quantization error
	// parallel to the data point is penalized etaParallel times more than
	// orthogonal error.
	Anisotropic bool
	// Seed drives k-means seeding.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 16
	}
	if c.Iters == 0 {
		c.Iters = 15
	}
	return c
}

// etaParallel is the anisotropic loss's weight on parallel error (ScaNN's
// T=0.2 regime on unit-norm data lands near 4).
const etaParallel = 4

// PQ is a trained product quantizer. Obtain one from Train or, for stored
// codebooks, FromCodebooks: both derive the centroid-major mirror every
// scoring method reads, so a PQ assembled field by field cannot score.
type PQ struct {
	Dim       int
	Subspaces int
	K         int
	// Bounds[s] and Bounds[s+1] delimit subspace s's dimensions.
	Bounds []int
	// Codebooks[s] is a K×subDim dataset of centroids.
	Codebooks []*dataset.Dataset
	// mirror[s] is Codebooks[s] transposed, centroid-major: coordinate j of
	// centroid c sits at mirror[s][j*N+c] with N the codebook's centroid
	// count, so one vecmath.SegmentToCentroids pass over its rows scores a
	// segment against all centroids. Derived, never stored: snapshots keep
	// the row-major codebooks only.
	mirror [][]float32
}

// FromCodebooks assembles a quantizer from already-trained codebooks (the
// snapshot loader's entry point) and derives its mirror. bounds delimits
// the subspaces as in PQ.Bounds; codebook s must hold between 1 and k
// centroids of bounds[s+1]-bounds[s] dimensions.
func FromCodebooks(dim, k int, bounds []int, codebooks []*dataset.Dataset) (*PQ, error) {
	m := len(codebooks)
	if m == 0 || len(bounds) != m+1 || bounds[0] != 0 || bounds[m] != dim {
		return nil, fmt.Errorf("quant: %d codebooks with bounds %v do not tile dim %d", m, bounds, dim)
	}
	if k < 1 || k > 256 {
		return nil, fmt.Errorf("quant: K=%d outside uint8 code range", k)
	}
	for s, cb := range codebooks {
		if cb == nil || cb.N < 1 || cb.N > k || cb.Dim != bounds[s+1]-bounds[s] || len(cb.Data) != cb.N*cb.Dim {
			return nil, fmt.Errorf("quant: codebook %d has the wrong shape for K=%d, dims [%d,%d)", s, k, bounds[s], bounds[s+1])
		}
	}
	pq := &PQ{Dim: dim, Subspaces: m, K: k, Bounds: bounds, Codebooks: codebooks}
	pq.buildMirror()
	return pq, nil
}

func (pq *PQ) buildMirror() {
	pq.mirror = make([][]float32, pq.Subspaces)
	for s, cb := range pq.Codebooks {
		pq.mirror[s] = cb.Transposed(0, cb.N)
	}
}

// centroidDists stores in dst[c] the squared distance between v's
// subspace-s segment and centroid c, for every centroid of that subspace
// (len(dst) must be Codebooks[s].N). The LUT builders and the encoder all
// score through this one kernel call, which is what makes a code the
// argmin of the matching LUT row bit for bit.
func (pq *PQ) centroidDists(dst []float32, s int, v []float32) {
	vecmath.SegmentToCentroids(dst, v[pq.Bounds[s]:pq.Bounds[s+1]], pq.mirror[s])
}

// Train fits the quantizer on ds.
func Train(ds *dataset.Dataset, cfg Config) (*PQ, error) {
	cfg = cfg.withDefaults()
	if ds == nil || ds.N == 0 || ds.Dim == 0 {
		return nil, fmt.Errorf("quant: cannot train on an empty dataset")
	}
	if cfg.Subspaces <= 0 || cfg.Subspaces > ds.Dim {
		return nil, fmt.Errorf("quant: Subspaces=%d invalid for dim %d", cfg.Subspaces, ds.Dim)
	}
	if ds.Dim%cfg.Subspaces != 0 {
		return nil, fmt.Errorf("quant: Subspaces=%d does not divide dim %d", cfg.Subspaces, ds.Dim)
	}
	if cfg.K > 256 {
		return nil, fmt.Errorf("quant: K=%d exceeds uint8 code range", cfg.K)
	}
	if ds.N < cfg.K {
		return nil, fmt.Errorf("quant: need at least K=%d points, have %d", cfg.K, ds.N)
	}
	pq := &PQ{Dim: ds.Dim, Subspaces: cfg.Subspaces, K: cfg.K}
	base := ds.Dim / cfg.Subspaces
	pq.Bounds = make([]int, cfg.Subspaces+1)
	for s := range pq.Bounds {
		pq.Bounds[s] = s * base
	}

	// Subspaces are independent k-means problems, each seeded by its own
	// index, so they train concurrently and every codebook is the one a
	// serial loop would fit.
	pq.Codebooks = make([]*dataset.Dataset, cfg.Subspaces)
	errs := make([]error, cfg.Subspaces)
	par.ForChunksMin(cfg.Subspaces, 1, func(first, end int) {
		for s := first; s < end; s++ {
			pq.Codebooks[s], errs[s] = trainSubspace(ds, pq.Bounds[s], pq.Bounds[s+1], cfg, cfg.Seed+int64(s))
		}
	})
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("quant: subspace %d: %w", s, err)
		}
	}
	pq.buildMirror()
	return pq, nil
}

// trainSubspace fits the codebook of the dimensions [lo, hi) of ds.
func trainSubspace(ds *dataset.Dataset, lo, hi int, cfg Config, seed int64) (*dataset.Dataset, error) {
	sub := dataset.New(ds.N, hi-lo)
	for i := 0; i < ds.N; i++ {
		copy(sub.Row(i), ds.Row(i)[lo:hi])
	}
	res, err := kmeans.Run(sub, cfg.K, kmeans.Options{Seed: seed, MaxIters: cfg.Iters})
	if err != nil {
		return nil, err
	}
	if cfg.Anisotropic {
		return anisotropicRefine(sub, res.Centroids, cfg, seed), nil
	}
	return res.Centroids, nil
}

// EncodeInto quantizes every row of ds into dst, a caller-provided flat
// row-major code buffer of length ds.N*Subspaces (row i's code occupies
// dst[i*Subspaces:(i+1)*Subspaces]). It performs no per-row allocation;
// dst is grown (reallocating at most once) if too short.
func (pq *PQ) EncodeInto(dst []uint8, ds *dataset.Dataset) ([]uint8, error) {
	if ds == nil {
		return dst[:0], nil
	}
	if ds.Dim != pq.Dim {
		return nil, fmt.Errorf("quant: dataset dim %d != quantizer dim %d", ds.Dim, pq.Dim)
	}
	need := ds.N * pq.Subspaces
	if cap(dst) < need {
		dst = make([]uint8, need)
	}
	dst = dst[:need]
	m := pq.Subspaces
	par.ForChunks(ds.N, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			pq.encodeVecInto(dst[i*m:(i+1)*m], ds.Row(i))
		}
	})
	return dst, nil
}

// AppendCode appends v's Subspaces-byte code to dst and returns the
// extended slice. It allocates only when dst lacks capacity, so a
// steady-state caller reusing its buffer pays zero allocations.
func (pq *PQ) AppendCode(dst []uint8, v []float32) []uint8 {
	n := len(dst)
	dst = append(dst, make([]uint8, pq.Subspaces)...)
	pq.encodeVecInto(dst[n:], v)
	return dst
}

// encodeVecInto picks, per subspace, the first centroid at minimum distance
// (vecmath.ArgMin breaks ties toward the smaller index).
func (pq *PQ) encodeVecInto(code []uint8, v []float32) {
	var dist [256]float32
	for s := 0; s < pq.Subspaces; s++ {
		d := dist[:pq.Codebooks[s].N]
		pq.centroidDists(d, s, v)
		code[s] = uint8(vecmath.ArgMin(d))
	}
}

// AppendLUT appends the flat row-major ADC table for q to dst and returns
// the extended slice: entry [s*K+c] is the squared distance between the
// query's subspace-s segment and centroid c. Subspaces whose codebooks
// hold fewer than K centroids pad the tail of their row with zeros, so
// every row is exactly K wide and vecmath.LUTSum can index it uniformly.
// It allocates only when dst lacks capacity.
func (pq *PQ) AppendLUT(dst []float32, q []float32) []float32 {
	n, size := len(dst), pq.Subspaces*pq.K
	dst = slices.Grow(dst, size)[:n+size]
	flat := dst[n:]
	for s := 0; s < pq.Subspaces; s++ {
		pq.lutRow(flat[s*pq.K:(s+1)*pq.K], s, q)
	}
	return dst
}

// lutRow fills one K-wide table row: the distances to subspace s's
// centroids, then the zero padding of a short codebook.
func (pq *PQ) lutRow(row []float32, s int, q []float32) {
	cn := pq.Codebooks[s].N
	pq.centroidDists(row[:cn], s, q)
	clear(row[cn:])
}

// AppendLUTBatch appends the flat ADC tables of every query to dst back to
// back — query i's table occupies the Subspaces*K stride starting at
// i*Subspaces*K — and returns the extended slice. The batched build
// iterates subspace-major: one subspace's mirror rows (a few KB) score
// every query's segment before the next subspace is touched, so they stay
// in L1 across the batch. Every row is the identical kernel call AppendLUT
// performs, so each query's table is bit-identical to a per-query
// AppendLUT. It allocates only when dst lacks capacity.
func (pq *PQ) AppendLUTBatch(dst []float32, queries [][]float32) []float32 {
	n, stride := len(dst), pq.Subspaces*pq.K
	dst = slices.Grow(dst, len(queries)*stride)[:n+len(queries)*stride]
	flat := dst[n:]
	for s := 0; s < pq.Subspaces; s++ {
		for qi, q := range queries {
			pq.lutRow(flat[qi*stride+s*pq.K:][:pq.K], s, q)
		}
	}
	return dst
}

// anisotropicRefine re-optimizes centroids under the score-aware loss
// h∥·‖r∥‖² + h⊥·‖r⊥‖² with h∥ = etaParallel·h⊥, alternating weighted
// assignment with the closed-form weighted centroid update
// c = (Σ Aᵢ)⁻¹ Σ Aᵢ xᵢ, Aᵢ = I + (η−1)·uᵢuᵢᵀ (Guo et al. 2020, Thm 4.2).
func anisotropicRefine(sub *dataset.Dataset, cents *dataset.Dataset, cfg Config, seed int64) *dataset.Dataset {
	const eta = float64(etaParallel)
	d := sub.Dim
	k := cents.N
	rng := rand.New(rand.NewSource(seed))
	assign := make([]int, sub.N)
	units := make([][]float32, sub.N)
	for i := 0; i < sub.N; i++ {
		u := append([]float32(nil), sub.Row(i)...)
		if !vecmath.Normalize(u) {
			u = nil // zero segment: isotropic treatment
		}
		units[i] = u
	}

	anisoCost := func(x, c, u []float32) float32 {
		// r = x - c; cost = ‖r⊥‖² + η·‖r∥‖² = ‖r‖² + (η−1)(r·u)².
		var rr, ru float32
		for j := range x {
			r := x[j] - c[j]
			rr += r * r
			if u != nil {
				ru += r * u[j]
			}
		}
		return rr + float32(eta-1)*ru*ru
	}

	for iter := 0; iter < cfg.Iters; iter++ {
		// Weighted assignment.
		for i := 0; i < sub.N; i++ {
			x := sub.Row(i)
			best, bi := float32(math.MaxFloat32), 0
			for c := 0; c < k; c++ {
				if cost := anisoCost(x, cents.Row(c), units[i]); cost < best {
					best, bi = cost, c
				}
			}
			assign[i] = bi
		}
		// Closed-form update per centroid: accumulate A = Σ Aᵢ (d×d) and
		// b = Σ Aᵢ xᵢ, then solve A·c = b.
		for c := 0; c < k; c++ {
			A := make([]float64, d*d)
			b := make([]float64, d)
			count := 0
			for i := 0; i < sub.N; i++ {
				if assign[i] != c {
					continue
				}
				count++
				x := sub.Row(i)
				u := units[i]
				// Aᵢ = I + (η−1) u uᵀ ; Aᵢ xᵢ = xᵢ + (η−1)(u·xᵢ) u.
				var ux float64
				if u != nil {
					for j := range x {
						ux += float64(u[j]) * float64(x[j])
					}
				}
				for j := 0; j < d; j++ {
					A[j*d+j]++
					b[j] += float64(x[j])
					if u != nil {
						b[j] += (eta - 1) * ux * float64(u[j])
						for l := 0; l < d; l++ {
							A[j*d+l] += (eta - 1) * float64(u[j]) * float64(u[l])
						}
					}
				}
			}
			if count == 0 {
				copy(cents.Row(c), sub.Row(rng.Intn(sub.N)))
				continue
			}
			if sol, ok := solveLinear(A, b, d); ok {
				crow := cents.Row(c)
				for j := 0; j < d; j++ {
					crow[j] = float32(sol[j])
				}
			}
		}
	}
	return cents
}

// solveLinear solves the d×d system A·x = b by Gaussian elimination with
// partial pivoting. Returns ok=false for (near-)singular systems.
func solveLinear(A []float64, b []float64, d int) ([]float64, bool) {
	M := append([]float64(nil), A...)
	x := append([]float64(nil), b...)
	for col := 0; col < d; col++ {
		// Pivot.
		pivot, pv := col, math.Abs(M[col*d+col])
		for r := col + 1; r < d; r++ {
			if v := math.Abs(M[r*d+col]); v > pv {
				pivot, pv = r, v
			}
		}
		if pv < 1e-12 {
			return nil, false
		}
		if pivot != col {
			for j := 0; j < d; j++ {
				M[col*d+j], M[pivot*d+j] = M[pivot*d+j], M[col*d+j]
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		inv := 1 / M[col*d+col]
		for r := col + 1; r < d; r++ {
			f := M[r*d+col] * inv
			if f == 0 {
				continue
			}
			for j := col; j < d; j++ {
				M[r*d+j] -= f * M[col*d+j]
			}
			x[r] -= f * x[col]
		}
	}
	for col := d - 1; col >= 0; col-- {
		s := x[col]
		for j := col + 1; j < d; j++ {
			s -= M[col*d+j] * x[j]
		}
		x[col] = s / M[col*d+col]
	}
	return x, true
}
