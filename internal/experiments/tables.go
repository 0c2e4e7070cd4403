package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	usp "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/kmeans"
	"repro/internal/nn"
)

// table2 reproduces Table 2: learnable parameter counts of the
// space-partitioning methods when dividing the SIFT stand-in into 256 bins.
// Architectures follow the paper: Neural LSH uses a 512-wide hidden layer,
// USP a 128-wide one, and K-means "learns" only its centroids.
func table2(sc Scale, logf logfn) (*Report, error) {
	const dim, bins = 128, 256
	rng := rand.New(rand.NewSource(sc.Seed))

	nlshNet := nn.NewMLP(dim, []int{512}, bins, 0.1, rng)
	uspNet := nn.NewMLP(dim, []int{128}, bins, 0.1, rng)
	kmeansParams := bins * dim // centroid coordinates

	var b strings.Builder
	fmt.Fprintf(&b, "== Table 2: learnable parameters, SIFT-like, %d bins ==\n", bins)
	fmt.Fprintf(&b, "%-22s %12s %14s\n", "method", "hidden", "parameters")
	fmt.Fprintf(&b, "%-22s %12d %14d\n", "Neural LSH", 512, nlshNet.NumParams())
	fmt.Fprintf(&b, "%-22s %12d %14d\n", "USP (ours)", 128, uspNet.NumParams())
	fmt.Fprintf(&b, "%-22s %12s %14d\n", "K-means", "-", kmeansParams)
	fmt.Fprintf(&b, "\npaper reports: Neural LSH 729k, ours 183k, K-means 33k\n")
	fmt.Fprintf(&b, "(K-means matches exactly: 256x128 = 32768; the network counts\n")
	fmt.Fprintf(&b, "reflect single-hidden-layer MLPs with batch norm, the architecture\n")
	fmt.Fprintf(&b, "described in §5.2; the ordering NLSH >> ours >> K-means holds.)\n")
	return &Report{ID: "table2", Text: b.String()}, nil
}

// table3 reproduces Table 3: USP offline training time per (dataset, bins)
// configuration with the paper's η values, at the run's scale. It times
// usp.Build, so the k′-NN matrix and the lookup table count with the
// training. The paper's absolute minutes are not comparable (K80 GPU,
// 60k–1M points); the report records measured wall-clock alongside the
// configuration.
func table3(sc Scale, logf logfn) (*Report, error) {
	type cfgRow struct {
		ds   string
		bins int
	}
	rows := []cfgRow{
		{"mnist", 16}, {"mnist", 256}, {"sift", 16}, {"sift", 256},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== Table 3: offline training time (16 bins: ensemble of %d; 256 bins: 16x16 hierarchy) ==\n", sc.Ensemble)
	fmt.Fprintf(&b, "%-10s %8s %8s %6s %14s %10s\n", "dataset", "n", "bins", "eta", "train time", "per model")
	for _, row := range rows {
		bch := makeBench(row.ds, sc, 10)
		opt := uspOptions(sc, row.ds, row.bins)
		start := time.Now()
		ix, err := usp.Build(bch.base.Rows(), opt)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		per := elapsed / time.Duration(ix.Stats().Models)
		fmt.Fprintf(&b, "%-10s %8d %8d %6.0f %14s %10s\n",
			row.ds, bch.base.N, row.bins, *opt.Eta,
			elapsed.Round(time.Millisecond), per.Round(time.Millisecond))
		logf("table3: %s/%d done in %s", row.ds, row.bins, elapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "\npaper (1M SIFT / 60k MNIST on a K80): 2-40 minutes per configuration\n")
	return &Report{ID: "table3", Text: b.String()}, nil
}

// table4 reproduces Table 4: the relative decrease in candidate-set size of
// USP vs Neural LSH and K-means at a fixed 10-NN accuracy on the SIFT
// stand-in with 16 bins. The target accuracy adapts to the highest level all
// methods reach at this scale (the paper uses 85%).
func table4(sc Scale, logf logfn) (*Report, error) {
	rep, err := fig5(sc, logf, "sift", 16)
	if err != nil {
		return nil, err
	}
	series := rep.Series
	// Highest recall every method attains.
	target := 1.0
	for _, s := range series {
		best := 0.0
		for _, p := range s.Points {
			if p.Recall > best {
				best = p.Recall
			}
		}
		if best < target {
			target = best
		}
	}
	if target > 0.85 {
		target = 0.85
	} else {
		target *= 0.95 // stay below every curve's ceiling
	}

	var usp, nlsh, km float64
	var b strings.Builder
	fmt.Fprintf(&b, "== Table 4: |C| reduction at %.0f%% 10-NN accuracy (SIFT-like, 16 bins) ==\n", target*100)
	for _, s := range series {
		c, ok := eval.CandidatesAtRecall(s, target)
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-28s |C| = %10.1f\n", s.Name, c)
		switch {
		case strings.HasPrefix(s.Name, "USP"):
			usp = c
		case s.Name == "Neural LSH":
			nlsh = c
		case s.Name == "K-means":
			km = c
		}
	}
	if usp > 0 && nlsh > 0 {
		fmt.Fprintf(&b, "\nreduction vs Neural LSH: %5.1f%%  (paper: 33%%)\n", 100*(1-usp/nlsh))
	}
	if usp > 0 && km > 0 {
		fmt.Fprintf(&b, "reduction vs K-means:    %5.1f%%  (paper: 38%%)\n", 100*(1-usp/km))
	}
	return &Report{ID: "table4", Text: b.String(), Series: series}, nil
}

// table5 reproduces Table 5: clustering quality on the scikit-learn toys
// (moons, circles, 4-cluster classification). The paper compares plots;
// we report ARI and NMI against the generating labels.
func table5(sc Scale, logf logfn) (*Report, error) {
	rng := rand.New(rand.NewSource(sc.Seed))
	n := 400
	type toy struct {
		name string
		data *dataset.Labeled
		k    int
		// DBSCAN parameters tuned per dataset, as is standard.
		eps    float64
		minPts int
	}
	toys := []toy{
		{"moons", dataset.Moons(n, 0.04, rng), 2, 0.18, 5},
		{"circles", dataset.Circles(n, 0.5, 0.02, rng), 2, 0.15, 4},
		{"blobs4", dataset.Classification4(n, rng), 4, 0.3, 5},
	}

	var b strings.Builder
	fmt.Fprintf(&b, "== Table 5: clustering quality (ARI / NMI vs ground truth) ==\n")
	fmt.Fprintf(&b, "%-10s %-18s %8s %8s\n", "dataset", "method", "ARI", "NMI")
	for _, t := range toys {
		logf("table5: %s", t.name)
		// USP clustering (ours), using the Eq. 8 target-gradient mode
		// required for non-convex shapes (see DESIGN.md).
		uspLabels, err := core.ClusterLabels(t.data.Dataset, t.k, core.Config{
			KPrime: 10, Eta: 3, Epochs: 10 * sc.Epochs, Hidden: []int{sc.Hidden},
			Seed: sc.Seed, BatchSize: 128, TargetGrad: true, LR: 3e-3,
		})
		if err != nil {
			return nil, err
		}
		// DBSCAN.
		dbLabels := cluster.DBSCAN(t.data.Dataset, t.eps, t.minPts)
		// K-means.
		kmRes, err := kmeans.Run(t.data.Dataset, t.k, kmeans.Options{Seed: sc.Seed, Restarts: 5})
		if err != nil {
			return nil, err
		}
		kmLabels := make([]int, t.data.N)
		for i, a := range kmRes.Assign {
			kmLabels[i] = int(a)
		}
		// Spectral.
		spLabels, err := cluster.Spectral(t.data.Dataset, cluster.SpectralConfig{
			K: t.k, Seed: sc.Seed, PowerIters: 500,
		})
		if err != nil {
			return nil, err
		}
		for _, m := range []struct {
			name   string
			labels []int
		}{
			{"USP (ours)", uspLabels},
			{"DBSCAN", dbLabels},
			{"K-means", kmLabels},
			{"Spectral", spLabels},
		} {
			fmt.Fprintf(&b, "%-10s %-18s %8.3f %8.3f\n", t.name, m.name,
				cluster.ARI(m.labels, t.data.Labels), cluster.NMI(m.labels, t.data.Labels))
		}
	}
	fmt.Fprintf(&b, "\npaper: USP matches the natural clustering on all three; K-means\n")
	fmt.Fprintf(&b, "fails on moons/circles; spectral matches but does not scale.\n")
	return &Report{ID: "table5", Text: b.String()}, nil
}
