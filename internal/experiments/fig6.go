package experiments

import (
	"fmt"

	usp "repro"
	"repro/internal/eval"
	"repro/internal/knn"
	"repro/internal/neurallsh"
	"repro/internal/trees"
)

// fig6 reproduces Figure 6: hyperplane-partitioning binary trees of depth
// sc.TreeDepth (2^depth bins). "USP (logistic)" is the paper's method with a
// logistic-regression learner trained recursively; the baselines are
// Regression LSH, 2-means trees, PCA trees, random-projection trees, the
// learned KD-tree, and the Boosted Search Forest.
func fig6(sc Scale, logf logfn, ds string) (*Report, error) {
	const k = 10
	kPrime := 10
	b := makeBench(ds, sc, k)
	depth := sc.TreeDepth
	bins := 1 << depth
	probes := probeSchedule(bins)
	var series []eval.Series

	// --- USP with logistic-regression learners (recursive binary). ---
	logf("fig6 %s: training USP logistic tree depth %d", ds, depth)
	levels := make([]int, depth)
	for i := range levels {
		levels[i] = 2
	}
	ix, err := usp.Build(b.base.Rows(), usp.Options{
		Hierarchy: levels, Logistic: true, KPrime: kPrime, Eta: usp.Float(etaFor(ds, bins)),
		Epochs: sc.Epochs, Seed: sc.Seed,
	})
	if err != nil {
		return nil, err
	}
	series = append(series, eval.SweepCandidates(b.base, b.queries, b.gt, k, eval.Method{
		Name: "USP (ours, logistic)", Candidates: uspCandidates(ix),
	}, probes))

	// --- Regression LSH. ---
	logf("fig6 %s: Regression LSH", ds)
	rlsh := trees.Build(b.base, depth, neurallsh.RegressionFitter{
		KPrime: kPrime, Epochs: sc.Epochs / 2, Seed: sc.Seed,
	}, sc.Seed)
	series = append(series, eval.SweepCandidates(b.base, b.queries, b.gt, k, eval.Method{
		Name: "Regression LSH", Candidates: rlsh.Candidates,
	}, probes))

	// --- Simple hyperplane trees. ---
	for _, f := range []trees.Fitter{
		trees.TwoMeansFitter{}, trees.PCAFitter{}, trees.RPFitter{}, trees.KDFitter{},
	} {
		logf("fig6 %s: %s", ds, f.Name())
		tr := trees.Build(b.base, depth, f, sc.Seed)
		series = append(series, eval.SweepCandidates(b.base, b.queries, b.gt, k, eval.Method{
			Name: f.Name(), Candidates: tr.Candidates,
		}, probes))
	}

	// --- Boosted Search Forest. ---
	logf("fig6 %s: boosted search forest", ds)
	forest := trees.BuildBoostedForest(b.base, knn.BuildMatrix(b.base, kPrime).Neighbors, trees.ForestConfig{
		NumTrees: 3, Depth: depth, Seed: sc.Seed,
	})
	series = append(series, eval.SweepCandidates(b.base, b.queries, b.gt, k, eval.Method{
		Name: "boosted search forest", Candidates: forest.Candidates,
	}, probes))

	title := fmt.Sprintf("Fig 6 (%s): hyperplane trees, depth %d = %d bins (n=%d, q=%d)",
		ds, depth, bins, b.base.N, b.queries.N)
	return &Report{
		ID:     "fig6-" + ds,
		Text:   eval.RenderSeries(title, series),
		Series: series,
	}, nil
}
