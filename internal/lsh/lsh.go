// Package lsh implements the data-oblivious locality-sensitive-hashing
// baselines of the paper's evaluation: cross-polytope LSH (Andoni et al.
// 2015), used in Fig. 5, and classic hyperplane (sign-random-projection)
// LSH. Both expose the shared multi-probe candidate-source contract so they
// plug into the same evaluation harness as the learned partitioners.
package lsh

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/vecmath"
)

// CrossPolytope partitions R^d into 2·proj bins: a random Gaussian matrix
// maps a vector to a proj-dimensional rotation, and the bin is the index of
// the coordinate with the largest magnitude together with its sign. Probing
// order ranks bins by the signed coordinate magnitudes, the natural
// multi-probe sequence for the cross-polytope hash.
type CrossPolytope struct {
	M    int // number of bins == 2·proj
	proj *dataset.Dataset
	Bins [][]int32
}

// NewCrossPolytope builds an index with m bins (m must be even and ≥ 2)
// over ds.
func NewCrossPolytope(ds *dataset.Dataset, m int, seed int64) (*CrossPolytope, error) {
	if m < 2 || m%2 != 0 {
		return nil, fmt.Errorf("lsh: cross-polytope needs an even bin count ≥ 2, got %d", m)
	}
	rng := rand.New(rand.NewSource(seed))
	p := m / 2
	proj := dataset.New(p, ds.Dim)
	for i := range proj.Data {
		proj.Data[i] = float32(rng.NormFloat64())
	}
	cp := &CrossPolytope{M: m, proj: proj, Bins: make([][]int32, m)}
	for i := 0; i < ds.N; i++ {
		b := cp.hash(ds.Row(i))
		cp.Bins[b] = append(cp.Bins[b], int32(i))
	}
	return cp, nil
}

// scores returns the per-bin scores for q: bin 2j is the positive direction
// of projection j, bin 2j+1 the negative direction.
func (cp *CrossPolytope) scores(q []float32) []float32 {
	s := make([]float32, cp.M)
	for j := 0; j < cp.proj.N; j++ {
		v := vecmath.Dot(q, cp.proj.Row(j))
		s[2*j] = v
		s[2*j+1] = -v
	}
	return s
}

func (cp *CrossPolytope) hash(q []float32) int {
	return vecmath.ArgMax(cp.scores(q))
}

// Candidates returns the union of the mPrime best-scoring bins' points.
func (cp *CrossPolytope) Candidates(q []float32, mPrime int) []int {
	bins := vecmath.TopKIndices(cp.scores(q), mPrime)
	var out []int
	for _, b := range bins {
		for _, i := range cp.Bins[b] {
			out = append(out, int(i))
		}
	}
	return out
}

// BinSizes returns per-bin point counts.
func (cp *CrossPolytope) BinSizes() []int {
	out := make([]int, cp.M)
	for i, b := range cp.Bins {
		out[i] = len(b)
	}
	return out
}

// Hyperplane is sign-random-projection LSH: bits of the bin id are the signs
// of L = log2(m) random hyperplane projections. Multi-probe flips the
// lowest-margin bits first (Lv et al. 2007).
type Hyperplane struct {
	M      int // 2^L bins
	planes *dataset.Dataset
	Bins   [][]int32
}

// newHyperplane builds an index with m bins; m must be a power of two.
func newHyperplane(ds *dataset.Dataset, m int, seed int64) (*Hyperplane, error) {
	if m < 2 || m&(m-1) != 0 {
		return nil, fmt.Errorf("lsh: hyperplane needs a power-of-two bin count, got %d", m)
	}
	bits := 0
	for 1<<bits < m {
		bits++
	}
	rng := rand.New(rand.NewSource(seed))
	planes := dataset.New(bits, ds.Dim)
	for i := range planes.Data {
		planes.Data[i] = float32(rng.NormFloat64())
	}
	h := &Hyperplane{M: m, planes: planes, Bins: make([][]int32, m)}
	for i := 0; i < ds.N; i++ {
		b, _ := h.hash(ds.Row(i))
		h.Bins[b] = append(h.Bins[b], int32(i))
	}
	return h, nil
}

// hash returns the bin id and the per-bit margins.
func (h *Hyperplane) hash(q []float32) (int, []float32) {
	margins := make([]float32, h.planes.N)
	id := 0
	for b := 0; b < h.planes.N; b++ {
		v := vecmath.Dot(q, h.planes.Row(b))
		margins[b] = v
		if v >= 0 {
			id |= 1 << b
		}
	}
	return id, margins
}

// Candidates probes the home bin followed by perturbed bins in increasing
// total flipped-margin order, up to mPrime bins.
func (h *Hyperplane) Candidates(q []float32, mPrime int) []int {
	home, margins := h.hash(q)
	if mPrime > h.M {
		mPrime = h.M
	}
	// Score every bin by the summed |margin| of bits where it differs from
	// the home bin; enumerate all m bins (m is small in our experiments).
	type scored struct {
		bin  int
		cost float32
	}
	bins := make([]scored, h.M)
	for b := 0; b < h.M; b++ {
		var cost float32
		diff := b ^ home
		for bit := 0; bit < h.planes.N; bit++ {
			if diff&(1<<bit) != 0 {
				m := margins[bit]
				if m < 0 {
					m = -m
				}
				cost += m
			}
		}
		bins[b] = scored{b, cost}
	}
	// Selection sort of the mPrime cheapest bins (m is small).
	var out []int
	for probe := 0; probe < mPrime; probe++ {
		best := probe
		for j := probe + 1; j < h.M; j++ {
			if bins[j].cost < bins[best].cost {
				best = j
			}
		}
		bins[probe], bins[best] = bins[best], bins[probe]
		for _, i := range h.Bins[bins[probe].bin] {
			out = append(out, int(i))
		}
	}
	return out
}

// BinSizes returns per-bin point counts.
func (h *Hyperplane) BinSizes() []int {
	out := make([]int, h.M)
	for i, b := range h.Bins {
		out[i] = len(b)
	}
	return out
}
