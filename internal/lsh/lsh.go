// Package lsh implements the data-oblivious locality-sensitive-hashing
// baseline of the paper's Fig. 5: cross-polytope LSH (Andoni et al. 2015).
// It exposes the shared multi-probe candidate-source contract, so it plugs
// into the same evaluation harness as the learned partitioners.
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
