package main

import (
	"fmt"
	"math/rand"

	usp "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/quant"
	"repro/internal/vecmath"
)

// rig is the stage rig: the same partitioner, dataset and codes the engine
// holds, rebuilt from the same rows, options and seeds through each layer's
// own public functions, so that every stage of a query can be timed from
// outside the engine. layerPass.checkRig proves it is the same structure.
type rig struct {
	ds   *dataset.Dataset
	ens  *core.Ensemble // exactly one of ens/hier is set
	hier *core.Hierarchy
	pq   *quant.PQ
	// codes is the flat row-major PQ code buffer over ds.
	codes []uint8
	// adc says the engine serves through the quantized path; on a float
	// workload the rig still carries a quantizer so the ADC stages can be
	// timed at this workload's scale, outside the stage sum.
	adc bool

	probes, rerankK int

	// member is the ensemble member the last routed query selected.
	member int
	qs     core.QueryScratch
	probs  []float32
	best   []float32
	bins   []int
	cands  []int32
	lut    []float32
	adcTop []vecmath.Neighbor
	rerank []int32
	nbrs   []vecmath.Neighbor
	tk     *vecmath.TopK
}

// buildRig repeats usp.Build, the bulk Add and the compaction of w's workload
// with the layers' public calls. The engine is deterministic for a seed, so
// the rig's tables come out identical to the engine's.
func buildRig(w *world) (*rig, error) {
	spec, opt := w.spec, w.opt
	r := &rig{adc: opt.Quantize.Enabled, probes: spec.Search.Probes, rerankK: spec.Search.RerankK, tk: vecmath.NewTopK(1)}
	if r.rerankK == 0 {
		r.rerankK = 4 * topK
	}
	r.ds = dataset.FromRowsCopy(w.rows[:spec.SeedRows])
	r.ds.EnsureSqNorms(false)
	// usp.Options' defaults for the fields no workload sets.
	cfg := core.Config{
		Bins: opt.Bins, KPrime: 10, Eta: 10, Epochs: opt.Epochs, Hidden: opt.Hidden,
		Dropout: 0.1, Seed: opt.Seed,
	}
	if cfg.Bins == 0 {
		cfg.Bins = 16
	}
	var err error
	if len(opt.Hierarchy) > 0 {
		r.hier, _, err = core.TrainHierarchy(r.ds, opt.Hierarchy, cfg)
	} else {
		r.ens, _, err = core.TrainEnsemble(r.ds, knn.BuildMatrix(r.ds, cfg.KPrime), cfg, opt.Ensemble)
	}
	if err != nil {
		return nil, fmt.Errorf("stage rig: %w", err)
	}

	// Bulk load: the engine routes each added row on arrival and stages it
	// in shard id%8; compaction then appends the shards' lists to each bin
	// in shard order. Inserting shard by shard reproduces that order.
	added := w.rows[spec.SeedRows:]
	routes := make([][]int, len(added))
	for i, row := range added {
		r.ds.Append(row)
		if r.hier != nil {
			routes[i] = []int{r.hier.RouteLeafWith(&r.qs, row)}
		} else {
			routes[i] = r.ens.RouteBinsWith(&r.qs, row, nil)
		}
	}
	const engineShards = 8 // usp.Options.Shards' default
	for sh := 0; sh < engineShards; sh++ {
		for i := range added {
			id := spec.SeedRows + i
			if id%engineShards != sh {
				continue
			}
			if r.hier != nil {
				r.hier.InsertRouted(id, routes[i][0])
			} else {
				r.ens.InsertRouted(id, routes[i])
			}
		}
	}

	// Codebooks: the engine trains them in Build with seed Seed, and again
	// in the compaction that follows a bulk load that grew the index past
	// RetrainGrowth, with seed Seed + the epoch sequence (one epoch per Add).
	q := opt.Quantize
	if !q.Enabled {
		q = usp.Quantization{Subspaces: 32, K: 256, Iters: 10, TrainSample: 20000}
	}
	if q.K > r.ds.N {
		q.K = r.ds.N
	}
	pqSeed := opt.Seed
	if grown := len(added); float64(grown) >= 0.25*float64(spec.SeedRows) {
		pqSeed += int64(grown)
	}
	sample := r.ds
	if q.TrainSample > 0 && r.ds.N > q.TrainSample {
		sample = r.ds.Subset(rand.New(rand.NewSource(pqSeed + 103)).Perm(r.ds.N)[:q.TrainSample])
	}
	r.pq, err = quant.Train(sample, quant.Config{Subspaces: q.Subspaces, K: q.K, Iters: q.Iters, Seed: pqSeed + 101})
	if err != nil {
		return nil, fmt.Errorf("stage rig: %w", err)
	}
	if r.codes, err = r.pq.EncodeInto(nil, r.ds); err != nil {
		return nil, fmt.Errorf("stage rig: %w", err)
	}
	return r, nil
}

// route runs the forward passes and picks the bins to probe; gather copies
// those bins' ids into r.cands. Together they are what the engine's
// AppendCandidates does, split at the stage boundary.
func (r *rig) route(tr *tracer, parent int32, req int, q []float32) {
	sp := tr.begin("core.route", parent, req)
	if r.hier != nil {
		r.probs = r.hier.LeafProbabilitiesInto(r.probs, q, &r.qs)
		r.bins = vecmath.TopKIndicesInto(r.bins, r.probs, r.probes)
		tr.end(sp, len(r.bins))
		return
	}
	// Best-confidence probing (the paper's Algorithm 4): the member whose
	// top bin probability is highest answers alone.
	bestConf := float32(-1)
	r.best = r.best[:0]
	for m, p := range r.ens.Parts {
		fw := tr.begin("nn.forward", sp, req)
		r.probs = p.ProbabilitiesInto(r.probs, q, &r.qs.Infer)
		tr.end(fw, 1)
		if c := r.probs[vecmath.ArgMax(r.probs)]; c > bestConf {
			bestConf = c
			r.best = append(r.best[:0], r.probs...)
			r.member = m
		}
	}
	r.bins = vecmath.TopKIndicesInto(r.bins, r.best, r.probes)
	tr.end(sp, len(r.bins))
}

func (r *rig) gather(tr *tracer, parent int32, req int) {
	sp := tr.begin("core.gather", parent, req)
	r.cands = r.cands[:0]
	if r.hier != nil {
		for _, b := range r.bins {
			r.cands = append(r.cands, r.hier.Bins[b]...)
		}
	} else {
		for _, b := range r.bins {
			r.cands = r.ens.Parts[r.member].AppendBin(r.cands, b)
		}
	}
	tr.end(sp, len(r.cands))
}

// scanFloat is the float path's scan stage over r.cands.
func (r *rig) scanFloat(tr *tracer, parent int32, req int, q []float32) {
	sp := tr.begin("knn.float_scan", parent, req)
	r.nbrs, _ = knn.SearchSubsetIntoCounted(r.nbrs[:0], r.ds, r.cands, q, topK, r.tk, nil)
	tr.end(sp, len(r.cands))
}

// scanADC is the quantized path's three stages over r.cands: lookup-table
// build, ADC scan to the re-rank depth, exact re-rank of the survivors.
func (r *rig) scanADC(tr *tracer, parent int32, req int, q []float32) {
	sp := tr.begin("quant.lut_build", parent, req)
	r.lut = r.pq.AppendLUT(r.lut[:0], q)
	tr.end(sp, len(r.lut))

	sp = tr.begin("knn.adc_scan", parent, req)
	r.adcTop, _ = knn.SearchSubsetADCIntoCounted(r.adcTop[:0], r.codes, r.pq.Subspaces, r.pq.K, r.lut, r.cands, r.rerankK, r.tk, nil)
	tr.end(sp, len(r.cands))

	sp = tr.begin("knn.rerank", parent, req)
	r.rerank = r.rerank[:0]
	for _, nb := range r.adcTop {
		r.rerank = append(r.rerank, int32(nb.Index))
	}
	r.nbrs = knn.SearchSubsetInto(r.nbrs[:0], r.ds, r.rerank, q, topK, r.tk, nil)
	tr.end(sp, len(r.rerank))
}

// query answers q through the stages the engine's own path uses, one span
// per stage under a rig.query root, and leaves the answer in r.nbrs.
func (r *rig) query(tr *tracer, req int, q []float32) {
	root := tr.begin("rig.query", -1, req)
	r.route(tr, root, req, q)
	r.gather(tr, root, req)
	if r.adc {
		r.scanADC(tr, root, req, q)
	} else {
		r.scanFloat(tr, root, req, q)
	}
	tr.end(root, len(r.nbrs))
}

// otherScan times the scan stages of the path this workload's engine does
// not use, over the same candidates, under its own root: they are reported
// per layer and left out of the stage sum.
func (r *rig) otherScan(tr *tracer, req int, q []float32) {
	r.route(nil, -1, req, q)
	r.gather(nil, -1, req)
	root := tr.begin("rig.other_path", -1, req)
	if r.adc {
		r.scanFloat(tr, root, req, q)
	} else {
		r.scanADC(tr, root, req, q)
	}
	tr.end(root, len(r.nbrs))
}

// stageNames lists the spans whose medians make up the stage sum.
func (r *rig) stageNames() []string {
	if r.adc {
		return []string{"core.route", "core.gather", "quant.lut_build", "knn.adc_scan", "knn.rerank"}
	}
	return []string{"core.route", "core.gather", "knn.float_scan"}
}

// binImbalance is the largest bin over the mean bin, by exact counts; for an
// ensemble, the worst member's.
func (r *rig) binImbalance() float64 {
	var tables [][]int
	if r.hier != nil {
		tables = append(tables, r.hier.BinSizes())
	} else {
		for _, p := range r.ens.Parts {
			tables = append(tables, p.BinSizes())
		}
	}
	worst := 0.0
	for _, sizes := range tables {
		total, largest := 0, 0
		for _, n := range sizes {
			total += n
			largest = max(largest, n)
		}
		if total > 0 {
			worst = max(worst, float64(largest)*float64(len(sizes))/float64(total))
		}
	}
	return worst
}
