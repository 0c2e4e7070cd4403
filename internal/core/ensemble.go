package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/vecmath"
)

// Ensemble is a sequence of complementary partitioners trained with the
// boosting scheme of Algorithm 3: each model's quality loss re-weights
// points by how badly all previous models separated their neighborhoods.
type Ensemble struct {
	Parts []*Partitioner
}

// EnsembleStats aggregates per-model training stats.
type EnsembleStats struct {
	PerModel []TrainStats
}

// TotalParams sums learnable parameters across the ensemble.
func (s EnsembleStats) TotalParams() int {
	t := 0
	for _, m := range s.PerModel {
		t += m.Params
	}
	return t
}

// TrainEnsemble trains e sequential models per Algorithm 3. The first model
// uses uniform weights; before model j+1, every point's weight is multiplied
// by the number of its k′ neighbors that partition j separated from it, so
// later models specialize on the points earlier partitions handled poorly.
// If every weight collapses to zero (all neighborhoods perfectly preserved),
// weights reset to uniform for the remaining models.
func TrainEnsemble(ds *dataset.Dataset, knnMat *knn.Matrix, cfg Config, e int) (*Ensemble, EnsembleStats, error) {
	if e < 1 {
		return nil, EnsembleStats{}, fmt.Errorf("core: ensemble size must be ≥ 1, got %d", e)
	}
	ens := &Ensemble{}
	var stats EnsembleStats
	weights := make([]float32, ds.N)
	for i := range weights {
		weights[i] = 1
	}
	for j := 0; j < e; j++ {
		mcfg := cfg
		mcfg.Seed = cfg.Seed + int64(j)*7919 // distinct init/shuffle per model
		p, st, err := Train(ds, knnMat, mcfg, weights)
		if err != nil {
			return nil, EnsembleStats{}, fmt.Errorf("core: training ensemble model %d: %w", j, err)
		}
		ens.Parts = append(ens.Parts, p)
		stats.PerModel = append(stats.PerModel, st)
		if j == e-1 {
			break
		}
		// Weight update of Algorithm 3(b): w^{j+1}_i = (#separated) · w^j_i.
		sep := p.SeparatedNeighbors(knnMat, mcfg.KPrime)
		var sum float64
		for i := range weights {
			weights[i] *= float32(sep[i])
			sum += float64(weights[i])
		}
		if sum == 0 {
			for i := range weights {
				weights[i] = 1
			}
		} else {
			// Normalize to mean 1 so η keeps the same relative scale
			// across ensemble stages.
			scale := float32(float64(ds.N) / sum)
			for i := range weights {
				weights[i] *= scale
			}
		}
	}
	return ens, stats, nil
}

// ProbeMode selects how the ensemble combines its models' candidate sets at
// query time.
type ProbeMode int

const (
	// BestConfidence implements Algorithm 4: the single candidate set of
	// the model whose top bin probability is highest.
	BestConfidence ProbeMode = iota
	// UnionProbe unions every model's candidate set (an enhancement we
	// ablate; it trades larger |C| for higher recall).
	UnionProbe
)

// Route runs every member's forward pass for q through the single-row
// kernel, leaving each member's distribution in row 0 of its scratch buffer.
func (e *Ensemble) Route(qs *QueryScratch, q []float32, mode ProbeMode) {
	for m, p := range e.Parts {
		qs.predict(&qs.memberProbs, m, p.Model, q)
	}
	e.selectMembers(qs, 1, mode)
}

// RouteBatch runs every member's forward pass over the staged batch — the
// whole chunk's routing inference in len(Parts) dispatched batched passes
// (one MatMul per Dense layer instead of a row of AXPY loops per query).
func (e *Ensemble) RouteBatch(qs *QueryScratch, mode ProbeMode) {
	for m, p := range e.Parts {
		qs.predict(&qs.memberProbs, m, p.Model, nil)
	}
	e.selectMembers(qs, qs.q.Rows, mode)
}

// selectMembers records, in best-confidence mode, each routed row's member
// per Algorithm 4: the one whose top bin probability is highest, first
// member winning ties. A row whose distributions are all NaN (an
// overflowing query) fails every comparison and selects no member, so its
// candidate set is empty.
func (e *Ensemble) selectMembers(qs *QueryScratch, n int, mode ProbeMode) {
	if mode != BestConfidence {
		return
	}
	if cap(qs.bestIdx) < n {
		qs.bestIdx = make([]int, n)
	}
	qs.bestIdx = qs.bestIdx[:n]
	for i := 0; i < n; i++ {
		bestIdx := -1
		bestConf := float32(-1)
		for m, p := range e.Parts {
			row := qs.memberProbs[m][i*p.M : (i+1)*p.M]
			if c := row[vecmath.ArgMax(row)]; c > bestConf {
				bestConf = c
				bestIdx = m
			}
		}
		qs.bestIdx[i] = bestIdx
	}
}

// AppendCandidatesRow appends routed row i's candidate set to dst: the ids
// in the mPrime most probable bins of the selected member (best-confidence)
// or of every member, first occurrences only (union).
func (e *Ensemble) AppendCandidatesRow(dst []int32, i, mPrime int, mode ProbeMode, qs *QueryScratch) []int32 {
	switch mode {
	case BestConfidence:
		m := qs.bestIdx[i]
		if m < 0 {
			return dst
		}
		p := e.Parts[m]
		row := qs.memberProbs[m][i*p.M : (i+1)*p.M]
		qs.bins = vecmath.TopKIndicesInto(qs.bins, row, mPrime)
		for _, b := range qs.bins {
			dst = append(dst, p.Bins[b]...)
		}
		return dst
	case UnionProbe:
		gen := qs.beginSeen()
		for m, p := range e.Parts {
			row := qs.memberProbs[m][i*p.M : (i+1)*p.M]
			qs.bins = vecmath.TopKIndicesInto(qs.bins, row, mPrime)
			for _, b := range qs.bins {
				mark := len(dst)
				dst = append(dst, p.Bins[b]...)
				// Compact in place, keeping first occurrences only.
				w := mark
				for _, id := range dst[mark:] {
					if int(id) >= len(qs.seen) {
						qs.growSeen(id)
					}
					if qs.seen[id] != gen {
						qs.seen[id] = gen
						dst[w] = id
						w++
					}
				}
				dst = dst[:w]
			}
		}
		return dst
	default:
		panic(fmt.Sprintf("core: unknown probe mode %d", mode))
	}
}

// CandidatesWith returns the ensemble's candidate set for q as a fresh
// []int — the adapter the offline callers (experiment sweeps, eval) use.
// Hold one QueryScratch across queries: UnionProbe's dedup array grows to
// the largest id it meets, so a fresh scratch per query would re-allocate
// and re-zero O(n) every call.
func (e *Ensemble) CandidatesWith(qs *QueryScratch, q []float32, mPrime int, mode ProbeMode) []int {
	e.Route(qs, q, mode)
	qs.cands = e.AppendCandidatesRow(qs.cands[:0], 0, mPrime, mode, qs)
	return ToInts(qs.cands)
}

// Size returns the number of models in the ensemble.
func (e *Ensemble) Size() int { return len(e.Parts) }
