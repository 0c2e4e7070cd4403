package core

import (
	"fmt"
	"slices"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/vecmath"
)

// Ensemble is the router the serving engine holds: one or more partitioners,
// each a tree of models with its own lookup table. TrainEnsemble's members
// are flat, complementary partitioners trained with the boosting scheme of
// Algorithm 3 (each model's quality loss re-weights points by how badly all
// previous models separated their neighborhoods); a trained hierarchy
// serves as an ensemble of one tree.
//
// The online phase is two calls: a routing pass that fills the scratch's
// probability rows and selects each row's most confident member (Route for
// one query, RouteBatch for a staged chunk), then AppendCandidatesRow per
// row, which gathers that one member's probed bins (Algorithm 4). Every
// method that changes a table (table.go) returns a new ensemble sharing the
// trained models and leaves the receiver untouched, so it may keep serving
// readers of an older epoch.
type Ensemble struct {
	Parts []*Partitioner
}

// OneTree returns the ensemble whose one member is p — how a trained
// hierarchy serves.
func OneTree(p *Partitioner) *Ensemble { return &Ensemble{Parts: []*Partitioner{p}} }

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

// Route runs every member's routing pass for q through single-row
// inference, leaving each member's leaf distribution in row 0 of its
// probability row, and selects row 0's member. A tree member's row is exact
// for its mPrime most probable leaves and reads −1 at leaves its walk never
// reached (topLeafProbs), so AppendCandidatesRow with mPrime or fewer bins,
// and member selection, see the bits of a walk over every node.
func (e *Ensemble) Route(qs *QueryScratch, q []float32, mPrime int) {
	qs.models = append(qs.models[:0], 0)
	for m, p := range e.Parts {
		buf := slot(&qs.probs, m)
		*buf = growFloats(*buf, p.M)
		qs.models[0] += p.topLeafProbs(*buf, q, mPrime, qs)
	}
	e.selectMembers(qs, 1)
}

// RouteBatch runs every member's routing pass over the rows staged with
// qs.Stage and selects each row's member. A flat member takes one batched
// forward pass over the chunk; a tree member routes each row through the
// walk Route takes, so it runs only the models the row's mPrime most
// probable leaves need. Every row is bit-identical to Route's for the same
// query: batch and single-row inference run one eval loop, so a batch
// answers as its queries one by one do.
func (e *Ensemble) RouteBatch(qs *QueryScratch, mPrime int) {
	n, dim := qs.q.Rows, qs.q.Cols
	qs.models = slices.Grow(qs.models[:0], n)[:n]
	clear(qs.models)
	for m, p := range e.Parts {
		buf := slot(&qs.probs, m)
		if p.children == nil {
			*buf = p.Model.PredictBatchInto(*buf, &qs.q, &qs.Infer)
			for i := range qs.models {
				qs.models[i]++
			}
			continue
		}
		*buf = growFloats(*buf, n*p.M)
		for i := range n {
			qs.models[i] += p.topLeafProbs((*buf)[i*p.M:(i+1)*p.M], qs.q.Data[i*dim:(i+1)*dim], mPrime, qs)
		}
	}
	e.selectMembers(qs, n)
}

// selectMembers records each routed row's member per Algorithm 4: the one
// whose top leaf probability is highest, first member winning ties. A member
// whose chosen confidence is NaN (an overflowing forward pass) fails every
// comparison and is never selected; a row where no member is selected has an
// empty candidate set. This holds for an ensemble of one tree too: a
// hierarchy row whose top leaf probability is NaN probes nothing.
func (e *Ensemble) selectMembers(qs *QueryScratch, n int) {
	if cap(qs.bestIdx) < n {
		qs.bestIdx = make([]int, n)
	}
	qs.bestIdx = qs.bestIdx[:n]
	for i := 0; i < n; i++ {
		bestIdx := -1
		bestConf := float32(-1)
		for m, p := range e.Parts {
			row := qs.probs[m][i*p.M : (i+1)*p.M]
			if c := row[vecmath.ArgMax(row)]; c > bestConf {
				bestConf = c
				bestIdx = m
			}
		}
		qs.bestIdx[i] = bestIdx
	}
}

// AppendCandidatesRow appends routed row i's candidate set to dst: the ids
// in the mPrime most probable bins of the row's selected member, each bin in
// its own order.
func (e *Ensemble) AppendCandidatesRow(dst []int32, i, mPrime int, qs *QueryScratch) []int32 {
	m := qs.bestIdx[i]
	if m < 0 {
		return dst
	}
	p := e.Parts[m]
	row := qs.probs[m][i*p.M : (i+1)*p.M]
	qs.bins = vecmath.TopKIndicesInto(qs.bins, row, mPrime)
	for _, b := range qs.bins {
		dst = append(dst, p.Bins[b]...)
	}
	return dst
}

// Size returns the number of models in the ensemble.
func (e *Ensemble) Size() int { return len(e.Parts) }
