package neurallsh

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/tensor"
	"repro/internal/trees"
	"repro/internal/vecmath"
)

func blobs(seed int64, n, dim, k int) (*dataset.Labeled, *knn.Matrix) {
	l := dataset.GaussianMixture(dataset.GaussianMixtureConfig{
		N: n, Dim: dim, Clusters: k, ClusterStd: 0.1, CenterBox: 5,
	}, rand.New(rand.NewSource(seed)))
	return l, knn.BuildMatrix(l.Dataset, 10)
}

func TestTrainPartitionAndRouter(t *testing.T) {
	l, mat := blobs(1, 500, 6, 4)
	m, err := Train(l.Dataset, mat, Config{
		Bins: 4, Hidden: []int{32}, Epochs: 40, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Lookup table covers every point exactly once and matches Assign.
	seen := make([]int, l.N)
	for b, pts := range m.Bins {
		for _, i := range pts {
			seen[i]++
			if m.Assign[i] != int32(b) {
				t.Fatalf("point %d assign mismatch", i)
			}
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("point %d in %d bins", i, c)
		}
	}
	// Graph partition of separated blobs must be balanced-ish.
	for b, pts := range m.Bins {
		if len(pts) < l.N/8 {
			t.Fatalf("bin %d has only %d points", b, len(pts))
		}
	}
	// The router must mimic the labels well on this easy layout.
	pred := m.Net.Predict(tensor.FromSlice(l.N, l.Dim, l.Data))
	correct := 0
	for i := 0; i < l.N; i++ {
		if vecmath.ArgMax(pred.Row(i)) == int(m.Assign[i]) {
			correct++
		}
	}
	if acc := float64(correct) / float64(l.N); acc < 0.9 {
		t.Fatalf("router accuracy %.3f", acc)
	}
}

func TestCandidatesGrowWithProbes(t *testing.T) {
	l, mat := blobs(3, 400, 4, 4)
	m, err := Train(l.Dataset, mat, Config{Bins: 4, Hidden: []int{16}, Epochs: 25, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := l.Row(0)
	prev := 0
	for mp := 1; mp <= 4; mp++ {
		c := len(m.Candidates(q, mp))
		if c < prev {
			t.Fatal("candidates shrank")
		}
		prev = c
	}
	if prev != l.N {
		t.Fatalf("all-bin probe |C| = %d", prev)
	}
}

func TestTrainValidation(t *testing.T) {
	l, mat := blobs(5, 50, 4, 2)
	if _, err := Train(l.Dataset, mat, Config{Bins: 1}); err == nil {
		t.Fatal("Bins=1 should fail")
	}
	if _, err := Train(l.Dataset, mat, Config{Bins: 100}); err == nil {
		t.Fatal("Bins>n should fail")
	}
}

// TestTrainSkipsOneRowBatch: 65 points in batches of 64 leave a last batch
// of one row, whose batch statistics are undefined; training skips it
// rather than panicking in batch norm.
func TestTrainSkipsOneRowBatch(t *testing.T) {
	ds := dataset.SIFTLike(65, rand.New(rand.NewSource(8)))
	m, err := Train(ds, knn.BuildMatrix(ds, 10), Config{Bins: 4, Hidden: []int{8}, Epochs: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Probabilities(ds.Row(0))) != 4 {
		t.Fatal("probabilities width")
	}
}

func TestLogisticRouterVariant(t *testing.T) {
	l, mat := blobs(6, 300, 4, 2)
	m, err := Train(l.Dataset, mat, Config{Bins: 2, Epochs: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if want := 4*2 + 2; m.Net.NumParams() != want {
		t.Fatalf("logistic router params = %d, want %d", m.Net.NumParams(), want)
	}
	if len(m.Probabilities(l.Row(0))) != 2 {
		t.Fatal("probabilities width")
	}
}

func TestRegressionFitterTree(t *testing.T) {
	l, _ := blobs(8, 400, 6, 4)
	tree := trees.Build(l.Dataset, 3, RegressionFitter{Seed: 9, Epochs: 20}, 9)
	if len(tree.Leaves) < 4 {
		t.Fatalf("leaves = %d", len(tree.Leaves))
	}
	// Leaf partition covers the dataset once.
	seen := make([]int, l.N)
	for _, leaf := range tree.Leaves {
		for _, i := range leaf {
			seen[i]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("point %d in %d leaves", i, c)
		}
	}
	// Balance: graph bisection labels must keep leaves within sane bounds.
	for li, leaf := range tree.Leaves {
		if len(leaf) > l.N*3/4 {
			t.Fatalf("leaf %d holds %d points", li, len(leaf))
		}
	}
	// Multi-probe monotonicity.
	q := l.Row(0)
	if len(tree.Candidates(q, len(tree.Leaves))) != l.N {
		t.Fatal("full probe must cover dataset")
	}
}

func TestRegressionFitterDegenerate(t *testing.T) {
	f := RegressionFitter{Seed: 1}
	d := dataset.New(3, 2) // < 4 points: unsplittable
	idx := []int32{0, 1, 2}
	if sp := f.Fit(d, idx, rand.New(rand.NewSource(1))); sp != nil {
		t.Fatal("expected nil splitter for tiny subset")
	}
}

// TestTrainReproducible: two trainings with one seed give the same
// partition labels and the same router.
func TestTrainReproducible(t *testing.T) {
	ds := dataset.Uniform(800, 8, rand.New(rand.NewSource(33)))
	mat := knn.BuildMatrix(ds, 10)
	cfg := Config{Bins: 8, Hidden: []int{16}, Epochs: 3, Seed: 34}
	a, err := Train(ds, mat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(ds, mat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("point %d: bin %d, then bin %d", i, a.Assign[i], b.Assign[i])
		}
	}
	for i := 0; i < 20; i++ {
		pa, pb := a.Probabilities(ds.Row(i)), b.Probabilities(ds.Row(i))
		for j := range pa {
			if math.Float32bits(pa[j]) != math.Float32bits(pb[j]) {
				t.Fatalf("row %d bin %d: probability %v, then %v", i, j, pa[j], pb[j])
			}
		}
	}
}
