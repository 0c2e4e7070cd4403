package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/kmeans"
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
	b := makeBench(ds, sc, k, kPrime)
	eta := etaFor(ds, bins)
	probes := probeSchedule(bins)
	var series []eval.Series

	// --- USP (ours). ---
	cfg := core.Config{
		Bins: bins, KPrime: kPrime, Eta: eta, Epochs: sc.Epochs,
		Hidden: []int{sc.Hidden}, Dropout: 0.1, Seed: sc.Seed,
	}
	if bins > 16 {
		// Hierarchical 16 × bins/16, as in the paper's 256-bin runs.
		logf("fig5 %s/%d: training USP hierarchy 16x%d", ds, bins, bins/16)
		h, _, err := core.TrainHierarchy(b.base, []int{16, bins / 16}, cfg)
		if err != nil {
			return nil, err
		}
		series = append(series, eval.SweepCandidates(b.base, b.queries, b.gt, k,
			uspMethod(fmt.Sprintf("USP (ours, hier 16x%d)", bins/16), core.OneTree(h), core.BestConfidence), probes))
	} else {
		logf("fig5 %s/%d: training USP ensemble of %d", ds, bins, sc.Ensemble)
		ens, _, err := core.TrainEnsemble(b.base, b.mat, cfg, sc.Ensemble)
		if err != nil {
			return nil, err
		}
		series = append(series, eval.SweepCandidates(b.base, b.queries, b.gt, k,
			uspMethod(fmt.Sprintf("USP (ours, e=%d)", sc.Ensemble), ens, core.BestConfidence), probes))
	}

	// --- Neural LSH. ---
	logf("fig5 %s/%d: training Neural LSH", ds, bins)
	nlsh, _, err := neurallsh.Train(b.base, b.mat, neurallsh.Config{
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
