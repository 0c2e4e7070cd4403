package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/vecmath"
)

// testData builds a small clustered dataset plus its k'-NN matrix.
func testData(t testing.TB, n, dim, clusters int, seed int64) (*dataset.Dataset, *knn.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l := dataset.GaussianMixture(dataset.GaussianMixtureConfig{
		N: n, Dim: dim, Clusters: clusters,
		ClusterStd: 0.15, CenterBox: 4, NoiseFrac: 0,
	}, rng)
	return l.Dataset, knn.BuildMatrix(l.Dataset, 10)
}

func smallCfg(bins int) Config {
	return Config{
		Bins: bins, KPrime: 5, Eta: 10, Epochs: 50,
		BatchSize: 128, Hidden: []int{16}, Dropout: 0.1, Seed: 42,
	}
}

// appendCandidates is the single-query form of the candidate path: route q
// through the single-row kernel, then gather row 0.
func appendCandidates(r *Ensemble, dst []int32, q []float32, mPrime int, qs *QueryScratch) []int32 {
	r.Route(qs, q, mPrime)
	return r.AppendCandidatesRow(dst, 0, mPrime, qs)
}

// searchWithStats answers a k-NN query: the best-confidence candidate set of
// the mPrime most probable bins, scanned by brute force. It also reports
// |C(q)|.
func searchWithStats(ds *dataset.Dataset, e *Ensemble, qs *QueryScratch, q []float32, k, mPrime int) ([]vecmath.Neighbor, int) {
	ids := appendCandidates(e, nil, q, mPrime, qs)
	cands := make([]int, len(ids))
	for i, id := range ids {
		cands[i] = int(id)
	}
	return knn.SearchSubset(ds, cands, q, k), len(cands)
}

// requireRoutedPartition checks that p's table holds every point of ds
// exactly once, in the bin its model routes the point to.
func requireRoutedPartition(t *testing.T, p *Partitioner, ds *dataset.Dataset) {
	t.Helper()
	total := 0
	for _, ids := range p.Bins {
		total += len(ids)
	}
	if total != ds.N {
		t.Fatalf("table holds %d ids, want %d", total, ds.N)
	}
	probs := predictBatched(p.Model, ds, 4096)
	for i, b := range scatter(p.Bins, ds.N) {
		if want := vecmath.ArgMax(probs.Row(i)); int(b) != want {
			t.Fatalf("point %d is in bin %d, its model routes it to %d", i, b, want)
		}
	}
}

func TestTrainPartitionInvariants(t *testing.T) {
	ds, mat := testData(t, 600, 8, 4, 1)
	p, stats, err := Train(ds, mat, smallCfg(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	requireRoutedPartition(t, p, ds)
	if stats.Params != p.Model.NumParams() || stats.Params == 0 {
		t.Fatalf("stats.Params = %d", stats.Params)
	}
	if stats.Duration <= 0 {
		t.Fatal("non-positive training duration")
	}
}

func TestTrainBalanceEffect(t *testing.T) {
	// With a healthy eta, no bin should be empty and the largest bin
	// should not swallow the dataset.
	ds, mat := testData(t, 600, 8, 4, 2)
	p, _, err := Train(ds, mat, smallCfg(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	sizes := p.BinSizes()
	for b, s := range sizes {
		if s == 0 {
			t.Fatalf("bin %d empty: %v", b, sizes)
		}
		if s > ds.N*3/4 {
			t.Fatalf("bin %d holds %d of %d points (collapsed): %v", b, s, ds.N, sizes)
		}
	}
}

func TestTrainQualityOnSeparatedClusters(t *testing.T) {
	// On well-separated clusters with m = #clusters, most points should
	// share a bin with most of their true neighbors.
	ds, mat := testData(t, 600, 8, 4, 3)
	p, _, err := Train(ds, mat, smallCfg(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	sep := p.SeparatedNeighbors(mat, 5)
	totalSep := 0
	for _, s := range sep {
		totalSep += s
	}
	frac := float64(totalSep) / float64(len(sep)*5)
	if frac > 0.25 {
		t.Fatalf("separated-neighbor fraction %.3f too high for separated clusters", frac)
	}
}

func TestIndexSearchBeatsRandomCandidates(t *testing.T) {
	ds, mat := testData(t, 600, 8, 4, 4)
	p, _, err := Train(ds, mat, smallCfg(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	ens := OneTree(p)
	var qs QueryScratch
	rng := rand.New(rand.NewSource(9))
	queries := dataset.GaussianMixture(dataset.GaussianMixtureConfig{
		N: 40, Dim: 8, Clusters: 4, ClusterStd: 0.15, CenterBox: 4,
	}, rand.New(rand.NewSource(4))) // same generator params as base
	gt := knn.GroundTruth(ds, queries.Dataset, 10)

	var uspRecall, randRecall float64
	var candTotal int
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		ns, c := searchWithStats(ds, ens, &qs, q, 10, 1)
		uspRecall += knn.RecallNeighbors(ns, gt[qi])
		candTotal += c
		// Random candidate set of the same size.
		perm := rng.Perm(ds.N)[:c]
		rs := knn.SearchSubset(ds, perm, q, 10)
		randRecall += knn.RecallNeighbors(rs, gt[qi])
	}
	uspRecall /= float64(queries.N)
	randRecall /= float64(queries.N)
	if uspRecall < randRecall+0.2 {
		t.Fatalf("USP recall %.3f not clearly above random %.3f (|C| avg %d)",
			uspRecall, randRecall, candTotal/queries.N)
	}
}

func TestMoreProbesMoreRecall(t *testing.T) {
	ds, mat := testData(t, 600, 8, 4, 5)
	p, _, err := Train(ds, mat, smallCfg(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	ens := OneTree(p)
	var qs QueryScratch
	gt := knn.GroundTruth(ds, ds, 10)
	var r1, rAll float64
	for qi := 0; qi < 50; qi++ {
		q := ds.Row(qi)
		n1, _ := searchWithStats(ds, ens, &qs, q, 10, 1)
		nAll, cAll := searchWithStats(ds, ens, &qs, q, 10, 4)
		r1 += knn.RecallNeighbors(n1, gt[qi])
		rAll += knn.RecallNeighbors(nAll, gt[qi])
		if cAll != ds.N {
			t.Fatalf("probing all bins returned %d candidates, want %d", cAll, ds.N)
		}
	}
	if rAll < r1 {
		t.Fatalf("recall decreased with more probes: %v vs %v", rAll/50, r1/50)
	}
	if math.Abs(rAll/50-1) > 1e-9 {
		t.Fatalf("probing all bins must give perfect recall, got %v", rAll/50)
	}
}

func TestTrainValidation(t *testing.T) {
	ds, mat := testData(t, 100, 4, 2, 6)
	bad := []Config{
		{Bins: 1, KPrime: 5, Epochs: 1},
		{Bins: 200, KPrime: 5, Epochs: 1},
		{Bins: 4, KPrime: 0, Epochs: 1},
		{Bins: 4, KPrime: 5, Epochs: 0},
		{Bins: 4, KPrime: 5, Epochs: 1, Eta: -1},
		{Bins: 4, KPrime: 50, Epochs: 1}, // KPrime > matrix K
	}
	for i, cfg := range bad {
		if _, _, err := Train(ds, mat, cfg, nil); err == nil {
			t.Fatalf("config %d should fail: %+v", i, cfg)
		}
	}
	// Wrong-size weights and nil matrix.
	good := Config{Bins: 4, KPrime: 5, Epochs: 1}
	if _, _, err := Train(ds, mat, good, make([]float32, 3)); err == nil {
		t.Fatal("short weights should fail")
	}
	if _, _, err := Train(ds, nil, good, nil); err == nil {
		t.Fatal("nil matrix should fail")
	}
}

func TestTrainLogisticModel(t *testing.T) {
	ds, mat := testData(t, 300, 4, 2, 7)
	cfg := Config{Bins: 2, KPrime: 5, Eta: 5, Epochs: 20, Seed: 1}
	p, stats, err := Train(ds, mat, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4*2 + 2; stats.Params != want {
		t.Fatalf("logistic params = %d, want %d", stats.Params, want)
	}
	if len(p.BinSizes()) != 2 {
		t.Fatalf("bins = %d", len(p.BinSizes()))
	}
}

func TestEnsembleTrainingAndProbing(t *testing.T) {
	ds, mat := testData(t, 600, 8, 4, 9)
	ens, stats, err := TrainEnsemble(ds, mat, smallCfg(4), 3)
	if err != nil {
		t.Fatal(err)
	}
	if ens.Size() != 3 || len(stats.PerModel) != 3 {
		t.Fatalf("ensemble size %d", ens.Size())
	}
	if stats.TotalParams() != 3*stats.PerModel[0].Params {
		t.Fatal("TotalParams mismatch")
	}
	q := ds.Row(0)
	var qs QueryScratch
	if best := appendCandidates(ens, nil, q, 1, &qs); len(best) == 0 {
		t.Fatal("best-confidence probe found no candidates")
	}
}

func TestEnsembleImprovesRecallAtFixedProbes(t *testing.T) {
	ds, mat := testData(t, 800, 8, 8, 10)
	cfg := smallCfg(8)
	single, _, err := TrainEnsemble(ds, mat, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	triple, _, err := TrainEnsemble(ds, mat, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	gt := knn.GroundTruth(ds, ds, 10)
	recall := func(e *Ensemble) float64 {
		var qs QueryScratch
		var r float64
		for qi := 0; qi < 100; qi++ {
			ns, _ := searchWithStats(ds, e, &qs, ds.Row(qi), 10, 1)
			r += knn.RecallNeighbors(ns, gt[qi])
		}
		return r / 100
	}
	r1, r3 := recall(single), recall(triple)
	if r3 < r1-0.02 { // allow tiny noise, but ensembling must not hurt
		t.Fatalf("ensemble recall %.3f worse than single %.3f", r3, r1)
	}
}

func TestEnsembleSizeValidation(t *testing.T) {
	ds, mat := testData(t, 100, 4, 2, 11)
	if _, _, err := TrainEnsemble(ds, mat, smallCfg(2), 0); err == nil {
		t.Fatal("e=0 should fail")
	}
}

func TestHierarchyInvariants(t *testing.T) {
	ds, mat := testData(t, 600, 8, 4, 12)
	_ = mat
	cfg := Config{KPrime: 5, Eta: 5, Epochs: 10, BatchSize: 128, Hidden: []int{8}, Seed: 3}
	h, stats, err := TrainHierarchy(ds, []int{2, 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.M != 4 || len(h.Bins) != 4 {
		t.Fatalf("M = %d", h.M)
	}
	if len(stats) == 0 {
		t.Fatal("no training stats")
	}
	// Leaf bins must partition the dataset.
	seen := make([]int, ds.N)
	for _, pts := range h.Bins {
		for _, i := range pts {
			seen[i]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("point %d in %d leaf bins", i, c)
		}
	}
	// Leaf probabilities sum to 1 (product of distributions over a tree).
	var qs QueryScratch
	probs := h.LeafProbabilitiesInto(nil, ds.Row(0), &qs)
	var sum float64
	for _, p := range probs {
		if p < 0 {
			t.Fatalf("negative leaf probability %v", p)
		}
		sum += float64(p)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Fatalf("leaf probabilities sum to %v", sum)
	}
	// Probing all leaf bins covers the whole dataset.
	if c := appendCandidates(OneTree(h), nil, ds.Row(0), h.M, &qs); len(c) != ds.N {
		t.Fatalf("full probe |C| = %d, want %d", len(c), ds.N)
	}
	if h.TotalParams() == 0 {
		t.Fatal("TotalParams = 0")
	}
	sizes := h.BinSizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != ds.N {
		t.Fatalf("bin sizes sum to %d", total)
	}
}

func TestHierarchyDeepBinaryTreeOnTinyData(t *testing.T) {
	// Depth 5 on 80 points forces the degenerate round-robin path.
	ds, _ := testData(t, 80, 4, 2, 13)
	cfg := Config{KPrime: 3, Eta: 3, Epochs: 5, Seed: 5}
	h, _, err := TrainHierarchy(ds, []int{2, 2, 2, 2, 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.M != 32 {
		t.Fatalf("M = %d", h.M)
	}
	seen := make([]int, ds.N)
	for _, pts := range h.Bins {
		for _, i := range pts {
			seen[i]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("point %d in %d bins", i, c)
		}
	}
}

func TestHierarchyValidation(t *testing.T) {
	ds, _ := testData(t, 100, 4, 2, 14)
	cfg := Config{KPrime: 3, Eta: 3, Epochs: 2, Seed: 1}
	if _, _, err := TrainHierarchy(ds, nil, cfg); err == nil {
		t.Fatal("empty levels should fail")
	}
	if _, _, err := TrainHierarchy(ds, []int{1}, cfg); err == nil {
		t.Fatal("branching 1 should fail")
	}
}

func TestClusterLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	l := dataset.GaussianMixture(dataset.GaussianMixtureConfig{
		N: 400, Dim: 2, Clusters: 3, ClusterStd: 0.08, CenterBox: 4,
	}, rng)
	labels, err := ClusterLabels(l.Dataset, 3, Config{
		KPrime: 8, Eta: 10, Epochs: 120, Hidden: []int{16}, Seed: 7, BatchSize: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != l.N {
		t.Fatalf("labels len %d", len(labels))
	}
	// Purity against ground truth should be high on separated blobs.
	purity := clusterPurity(labels, l.Labels, 3)
	if purity < 0.8 {
		t.Fatalf("cluster purity %.3f too low", purity)
	}
}

func clusterPurity(pred, truth []int, k int) float64 {
	counts := map[[2]int]int{}
	for i := range pred {
		counts[[2]int{pred[i], truth[i]}]++
	}
	correct := 0
	for c := 0; c < k; c++ {
		best := 0
		for key, n := range counts {
			if key[0] == c && n > best {
				best = n
			}
		}
		correct += best
	}
	return float64(correct) / float64(len(pred))
}
