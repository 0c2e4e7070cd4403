package cluster

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/kmeans"
	"repro/internal/vecmath"
)

// SpectralConfig controls spectral clustering.
type SpectralConfig struct {
	// K is the number of clusters.
	K int
	// Neighbors sparsifies the affinity to each point's that-many nearest
	// neighbors (0 keeps the dense Gaussian affinity).
	Neighbors int
	// PowerIters per eigenvector (default 200).
	PowerIters int
	// Seed drives the final k-means.
	Seed int64
}

// Spectral implements Ng–Jordan–Weiss normalized spectral clustering:
// Gaussian affinity whose bandwidth is the median distance to the 7th
// nearest neighbor, symmetric normalization L_sym = D^{-1/2} W D^{-1/2},
// top-K eigenvectors by power iteration with deflation, row normalization,
// then k-means in the embedded space. Dense O(n²) — intended for the small
// Table 5 datasets, as in the paper's own comparison.
func Spectral(ds *dataset.Dataset, cfg SpectralConfig) ([]int, error) {
	n := ds.N
	if cfg.K < 2 || cfg.K > n {
		return nil, fmt.Errorf("cluster: spectral K=%d out of range for n=%d", cfg.K, n)
	}
	if cfg.PowerIters == 0 {
		cfg.PowerIters = 200
	}

	// Pairwise squared distances.
	d2 := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := float64(vecmath.SquaredL2(ds.Row(i), ds.Row(j)))
			d2[i*n+j] = d
			d2[j*n+i] = d
		}
	}

	// Local-scale bandwidth: the median distance to the 7th nearest
	// neighbor. A global median-pairwise bandwidth over-smooths thin
	// manifolds (moons, rings); the k-th-neighbor scale tracks the
	// within-cluster geometry instead.
	kth := 7
	if kth >= n {
		kth = n - 1
	}
	kthDist := make([]float64, n)
	for i := 0; i < n; i++ {
		tk := vecmath.NewTopK(kth)
		for j := 0; j < n; j++ {
			if j != i {
				tk.Push(j, float32(d2[i*n+j]))
			}
		}
		sorted := tk.Sorted()
		kthDist[i] = math.Sqrt(float64(sorted[len(sorted)-1].Dist))
	}
	sigma := median(kthDist)
	if sigma == 0 {
		sigma = 1
	}

	// Affinity, optionally kNN-sparsified (symmetrized).
	W := make([]float64, n*n)
	inv := 1 / (2 * sigma * sigma)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				W[i*n+j] = math.Exp(-d2[i*n+j] * inv)
			}
		}
	}
	if cfg.Neighbors > 0 && cfg.Neighbors < n-1 {
		mask := make([]bool, n*n)
		for i := 0; i < n; i++ {
			tk := vecmath.NewTopK(cfg.Neighbors)
			for j := 0; j < n; j++ {
				if j != i {
					tk.Push(j, float32(d2[i*n+j]))
				}
			}
			for _, nb := range tk.Sorted() {
				mask[i*n+nb.Index] = true
				mask[nb.Index*n+i] = true
			}
		}
		for idx := range W {
			if !mask[idx] {
				W[idx] = 0
			}
		}
	}

	// Normalized affinity M = D^{-1/2} W D^{-1/2}; its top eigenvectors
	// are the bottom eigenvectors of L_sym.
	dinv := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += W[i*n+j]
		}
		if s <= 0 {
			dinv[i] = 0
		} else {
			dinv[i] = 1 / math.Sqrt(s)
		}
	}
	M := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			M[i*n+j] = dinv[i] * W[i*n+j] * dinv[j]
		}
	}

	// Top-K eigenvectors by power iteration with deflation.
	embed := dataset.New(n, cfg.K)
	vecs := make([][]float64, 0, cfg.K)
	vals := make([]float64, 0, cfg.K)
	for e := 0; e < cfg.K; e++ {
		v := powerIteration(M, n, vecs, vals, cfg.PowerIters, int64(e)+cfg.Seed)
		lam := rayleigh(M, v, n)
		vecs = append(vecs, v)
		vals = append(vals, lam)
		for i := 0; i < n; i++ {
			embed.Row(i)[e] = float32(v[i])
		}
	}

	// Row-normalize the embedding (NJW step 4).
	for i := 0; i < n; i++ {
		vecmath.Normalize(embed.Row(i))
	}
	res, err := kmeans.Run(embed, cfg.K, kmeans.Options{Seed: cfg.Seed, Restarts: 5})
	if err != nil {
		return nil, err
	}
	labels := make([]int, n)
	for i, a := range res.Assign {
		labels[i] = int(a)
	}
	return labels, nil
}

// powerIteration finds the dominant eigenvector of M orthogonal to the
// already-found vecs (deflation by explicit re-orthogonalization).
func powerIteration(M []float64, n int, vecs [][]float64, vals []float64, iters int, seed int64) []float64 {
	v := make([]float64, n)
	// Deterministic pseudo-random init (splitmix-style) so runs reproduce.
	state := uint64(seed)*2654435769 + 12345
	for i := range v {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		v[i] = float64(int64(state%2000001)-1000000) / 1e6
	}
	tmp := make([]float64, n)
	for it := 0; it < iters; it++ {
		// Orthogonalize against previous eigenvectors.
		for _, u := range vecs {
			var dot float64
			for i := range v {
				dot += v[i] * u[i]
			}
			for i := range v {
				v[i] -= dot * u[i]
			}
		}
		// tmp = M v.
		for i := 0; i < n; i++ {
			var s float64
			row := M[i*n : (i+1)*n]
			for j, m := range row {
				s += m * v[j]
			}
			tmp[i] = s
		}
		var norm float64
		for _, x := range tmp {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			break
		}
		for i := range v {
			v[i] = tmp[i] / norm
		}
	}
	return v
}

func rayleigh(M []float64, v []float64, n int) float64 {
	var num float64
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += M[i*n+j] * v[j]
		}
		num += v[i] * s
	}
	return num
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	// Insertion-free selection: simple sort via quickselect is overkill;
	// small slices in practice.
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}
