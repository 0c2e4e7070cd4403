package experiments

import (
	"fmt"

	usp "repro"
	"repro/internal/eval"
	"repro/internal/hnsw"
	"repro/internal/ivfpq"
	"repro/internal/kmeans"
	"repro/internal/quant"
)

// fig7 reproduces Figure 7: end-to-end ANNS pipelines — USP+ScaNN (the
// paper's proposal), vanilla ScaNN (full quantized scan), K-means+ScaNN,
// HNSW, and IVF-PQ (the FAISS baseline) — measured as 10-NN accuracy vs
// points scored and wall-clock query time.
func fig7(sc Scale, logf logfn, ds string) (*Report, error) {
	const k = 10
	bins := 16
	b := makeBench(ds, sc, k)
	probes := probeSchedule(bins)

	subspaces := 16
	if b.base.Dim%16 != 0 {
		subspaces = 8
	}
	pqK := 64
	if b.base.N < 4*pqK {
		pqK = 16
	}
	pqCfg := quant.Config{Subspaces: subspaces, K: pqK, Seed: sc.Seed, Anisotropic: true}
	logf("fig7 %s: training shared ScaNN quantizer", ds)
	scann, err := quant.NewScaNN(b.base, pqCfg)
	if err != nil {
		return nil, err
	}

	var series []eval.Series

	// --- USP + ScaNN. ---
	logf("fig7 %s: training USP partitioner", ds)
	ix, err := usp.Build(b.base.Rows(), uspOptions(sc, ds, bins))
	if err != nil {
		return nil, err
	}
	uspCands := uspCandidates(ix)
	series = append(series, eval.SweepSearch(b.queries, b.gt, k, eval.SearchMethod{
		Name: "USP + ScaNN (ours)",
		Search: func(q []float32, k, p int) ([]int, int) {
			cands := uspCands(q, p)
			return eval.NeighborIDs(scann.Search(q, k, cands)), len(cands)
		},
	}, probes))

	// --- Vanilla ScaNN: quantized scan of everything, no partitioner.
	// One point (no probe knob): the whole dataset is scored every query.
	logf("fig7 %s: vanilla ScaNN", ds)
	series = append(series, eval.SweepSearch(b.queries, b.gt, k, eval.SearchMethod{
		Name: "ScaNN (vanilla)",
		Search: func(q []float32, k, _ int) ([]int, int) {
			return eval.NeighborIDs(scann.Search(q, k, nil)), b.base.N
		},
	}, []int{1}))

	// --- K-means + ScaNN. ---
	logf("fig7 %s: K-means + ScaNN", ds)
	km, err := kmeans.NewIndex(b.base, bins, kmeans.Options{Seed: sc.Seed, Restarts: 3})
	if err != nil {
		return nil, err
	}
	series = append(series, eval.SweepSearch(b.queries, b.gt, k, eval.SearchMethod{
		Name: "K-means + ScaNN",
		Search: func(q []float32, k, p int) ([]int, int) {
			cands := km.Candidates(q, p)
			return eval.NeighborIDs(scann.Search(q, k, cands)), len(cands)
		},
	}, probes))

	// --- HNSW (probe knob = efSearch). ---
	logf("fig7 %s: building HNSW", ds)
	hn, err := hnsw.Build(b.base, hnsw.Config{M: 12, EfConstruction: 100, Seed: sc.Seed})
	if err != nil {
		return nil, err
	}
	efs := []int{10, 20, 40, 80, 160}
	series = append(series, eval.SweepSearch(b.queries, b.gt, k, eval.SearchMethod{
		Name: "HNSW",
		Search: func(q []float32, k, ef int) ([]int, int) {
			return eval.NeighborIDs(hn.Search(q, k, ef)), ef
		},
	}, efs))

	// --- IVF-PQ (FAISS baseline; probe knob = nprobe). ---
	logf("fig7 %s: building IVF-PQ", ds)
	ivf, err := ivfpq.Build(b.base, ivfpq.Config{
		NList: bins, Seed: sc.Seed,
		PQ: quant.Config{Subspaces: subspaces, K: pqK, Seed: sc.Seed},
	})
	if err != nil {
		return nil, err
	}
	series = append(series, eval.SweepSearch(b.queries, b.gt, k, eval.SearchMethod{
		Name: "IVF-PQ (FAISS)",
		Search: func(q []float32, k, p int) ([]int, int) {
			return eval.NeighborIDs(ivf.Search(q, k, p)), ivf.CandidateCount(q, p)
		},
	}, probes))

	title := fmt.Sprintf("Fig 7 (%s): end-to-end ANNS, 10-NN accuracy vs points scored / query time (n=%d, q=%d)",
		ds, b.base.N, b.queries.N)
	return &Report{
		ID:     "fig7-" + ds,
		Text:   eval.RenderSeries(title, series),
		Series: series,
	}, nil
}
