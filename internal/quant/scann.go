package quant

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/vecmath"
)

// ScaNN is the two-stage search pipeline of Guo et al. (2020): candidates
// (possibly the whole dataset) are first scored with the quantized ADC
// distance, the best survivors are re-scored with exact distances, and the
// top k are returned. The paper's Fig. 7 composes this pipeline with three
// partitioners: none ("vanilla ScaNN"), K-means, and USP.
type ScaNN struct {
	Data *dataset.Dataset
	PQ   *PQ
	// codes holds row i's code at codes[i*PQ.Subspaces:(i+1)*PQ.Subspaces].
	codes []uint8
}

// NewScaNN trains the quantizer on ds and encodes it.
func NewScaNN(ds *dataset.Dataset, cfg Config) (*ScaNN, error) {
	pq, err := Train(ds, cfg)
	if err != nil {
		return nil, fmt.Errorf("quant: training ScaNN quantizer: %w", err)
	}
	codes, err := pq.EncodeInto(nil, ds)
	if err != nil {
		return nil, err
	}
	return &ScaNN{Data: ds, PQ: pq, codes: codes}, nil
}

// Search scans the given candidate ids (all points when nil) with ADC
// scoring, exact-reranks the survivors, and returns the k nearest.
//
// The rerank budget scales with the candidate count (10% of the scanned
// points, floored at 10·k): a fixed window would let quantization
// false-positives crowd out true neighbors as candidate sets grow, making
// recall non-monotone in the probe count.
func (s *ScaNN) Search(q []float32, k int, candidates []int) []vecmath.Neighbor {
	scanned := len(candidates)
	if candidates == nil {
		scanned = s.Data.N
	}
	lut := s.PQ.AppendLUT(nil, q)
	m := s.PQ.Subspaces
	score := func(i int) float32 { return vecmath.LUTSum(lut, s.PQ.K, s.codes[i*m:(i+1)*m]) }
	stage1 := vecmath.NewTopK(max(10*k, scanned/10))
	if candidates == nil {
		for i := 0; i < s.Data.N; i++ {
			stage1.Push(i, score(i))
		}
	} else {
		for _, i := range candidates {
			stage1.Push(i, score(i))
		}
	}
	stage2 := vecmath.NewTopK(k)
	for _, nb := range stage1.Sorted() {
		stage2.Push(nb.Index, vecmath.SquaredL2(q, s.Data.Row(nb.Index)))
	}
	return stage2.Sorted()
}
