package experiments

import (
	"fmt"

	usp "repro"
	"repro/internal/eval"
	"repro/internal/kmeans"
	"repro/internal/knn"
	"repro/internal/lsh"
	"repro/internal/neurallsh"
)

// fig5 reproduces Figure 5: 10-NN accuracy vs candidate-set size for USP
// (ensemble of sc.Ensemble models; hierarchical 16×(bins/16) when bins >
// 16), Neural LSH, K-means, and cross-polytope LSH, on one dataset with a
// fixed bin count.
func fig5(sc Scale, logf logfn, ds string, bins int) (*Report, error) {
	const k = 10
	kPrime := 10
	b := makeBench(ds, sc, k)
	probes := probeSchedule(bins)
	var series []eval.Series

	// --- USP (ours). ---
	opt := uspOptions(sc, ds, bins)
	name := fmt.Sprintf("USP (ours, e=%d)", sc.Ensemble)
	if opt.Hierarchy != nil {
		name = fmt.Sprintf("USP (ours, hier 16x%d)", bins/16)
		logf("fig5 %s/%d: training USP hierarchy 16x%d", ds, bins, bins/16)
	} else {
		logf("fig5 %s/%d: training USP ensemble of %d", ds, bins, sc.Ensemble)
	}
	ix, err := usp.Build(b.base.Rows(), opt)
	if err != nil {
		return nil, err
	}
	series = append(series, eval.SweepCandidates(b.base, b.queries, b.gt, k, eval.Method{
		Name: name, Candidates: uspCandidates(ix),
	}, probes))

	// --- Neural LSH. ---
	logf("fig5 %s/%d: training Neural LSH", ds, bins)
	nlsh, err := neurallsh.Train(b.base, knn.BuildMatrix(b.base, kPrime), neurallsh.Config{
		Bins: bins, Hidden: []int{sc.NLSHHidden}, Epochs: sc.Epochs, Seed: sc.Seed,
	})
	if err != nil {
		return nil, err
	}
	series = append(series, eval.SweepCandidates(b.base, b.queries, b.gt, k, eval.Method{
		Name: "Neural LSH", Candidates: nlsh.Candidates,
	}, probes))

	// --- K-means. ---
	logf("fig5 %s/%d: K-means", ds, bins)
	km, err := kmeans.NewIndex(b.base, bins, kmeans.Options{Seed: sc.Seed, Restarts: 3})
	if err != nil {
		return nil, err
	}
	series = append(series, eval.SweepCandidates(b.base, b.queries, b.gt, k, eval.Method{
		Name: "K-means", Candidates: km.Candidates,
	}, probes))

	// --- Cross-polytope LSH. ---
	logf("fig5 %s/%d: cross-polytope LSH", ds, bins)
	cp, err := lsh.NewCrossPolytope(b.base, bins, sc.Seed)
	if err != nil {
		return nil, err
	}
	series = append(series, eval.SweepCandidates(b.base, b.queries, b.gt, k, eval.Method{
		Name: "Cross-polytope LSH", Candidates: cp.Candidates,
	}, probes))

	title := fmt.Sprintf("Fig 5 (%s, %d bins): 10-NN accuracy vs |C| (n=%d, q=%d)",
		ds, bins, b.base.N, b.queries.N)
	return &Report{
		ID:     fmt.Sprintf("fig5-%s-%d", ds, bins),
		Text:   eval.RenderSeries(title, series),
		Series: series,
	}, nil
}
