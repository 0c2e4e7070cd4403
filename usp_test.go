package usp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
)

func clusteredVectors(seed int64, n, dim, clusters int) ([][]float32, []int) {
	l := dataset.GaussianMixture(dataset.GaussianMixtureConfig{
		N: n, Dim: dim, Clusters: clusters, ClusterStd: 0.15, CenterBox: 4,
	}, rand.New(rand.NewSource(seed)))
	return l.Rows(), l.Labels
}

func TestBuildAndSearch(t *testing.T) {
	vecs, _ := clusteredVectors(1, 600, 8, 4)
	ix, err := Build(vecs, Options{
		Bins: 4, Epochs: 40, Hidden: []int{16}, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 600 || ix.Dim() != 8 {
		t.Fatalf("Len/Dim = %d/%d", ix.Len(), ix.Dim())
	}
	st := ix.Stats()
	if st.Bins != 4 || st.Models != 1 || st.Params == 0 {
		t.Fatalf("stats %+v", st)
	}
	// Self-query: the vector itself must be the top hit.
	res, err := ix.Search(vecs[0], 5, SearchOptions{Probes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].ID != 0 || res[0].Distance != 0 {
		t.Fatalf("self query returned %+v", res)
	}
	// Results sorted by distance.
	for i := 1; i < len(res); i++ {
		if res[i].Distance < res[i-1].Distance {
			t.Fatal("results not sorted")
		}
	}
}

func TestSearchAllProbesIsExact(t *testing.T) {
	vecs, _ := clusteredVectors(3, 400, 6, 4)
	ix, err := Build(vecs, Options{Bins: 4, Epochs: 30, Hidden: []int{16}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.FromRowsCopy(vecs)
	gt := knn.GroundTruth(ds, ds, 10)
	for qi := 0; qi < 20; qi++ {
		res, err := ix.Search(vecs[qi], 10, SearchOptions{Probes: 4})
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int, len(res))
		for i, r := range res {
			ids[i] = r.ID
		}
		if r := knn.Recall(ids, gt[qi]); r != 1 {
			t.Fatalf("query %d: recall %v with all probes", qi, r)
		}
	}
}

func TestEnsembleBuild(t *testing.T) {
	vecs, _ := clusteredVectors(5, 500, 8, 4)
	ix, err := Build(vecs, Options{Bins: 4, Ensemble: 2, Epochs: 30, Hidden: []int{16}, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Stats().Models != 2 {
		t.Fatalf("models = %d", ix.Stats().Models)
	}
	best, err := ix.CandidateSet(vecs[0], SearchOptions{Probes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(best) == 0 {
		t.Fatal("best-confidence probe found no candidates")
	}
}

func TestHierarchicalBuild(t *testing.T) {
	vecs, _ := clusteredVectors(7, 600, 8, 4)
	ix, err := Build(vecs, Options{Hierarchy: []int{2, 2}, Epochs: 15, Hidden: []int{8}, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Stats().Bins != 4 {
		t.Fatalf("bins = %d", ix.Stats().Bins)
	}
	res, err := ix.Search(vecs[0], 5, SearchOptions{Probes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
}

func TestBuildValidation(t *testing.T) {
	vecs, _ := clusteredVectors(9, 100, 4, 2)
	if _, err := Build(vecs[:2], Options{}); err == nil {
		t.Fatal("too-small input should fail")
	}
	if _, err := Build(vecs, Options{Hierarchy: []int{2}, Ensemble: 3}); err == nil {
		t.Fatal("hierarchy+ensemble should fail")
	}
	ix, err := Build(vecs, Options{Bins: 2, Epochs: 5, Logistic: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Search(vecs[0], 0, SearchOptions{}); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, err := ix.Search(make([]float32, 7), 3, SearchOptions{}); err == nil {
		t.Fatal("dim mismatch should fail")
	}
}

func TestLogisticOption(t *testing.T) {
	vecs, _ := clusteredVectors(11, 200, 4, 2)
	ix, err := Build(vecs, Options{Bins: 2, Epochs: 20, Logistic: true, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if want := 4*2 + 2; ix.Stats().Params != want {
		t.Fatalf("logistic params = %d, want %d", ix.Stats().Params, want)
	}
}

func TestAddRoutesAndFinds(t *testing.T) {
	vecs, _ := clusteredVectors(17, 400, 8, 4)
	ix, err := Build(vecs, Options{Bins: 4, Epochs: 30, Hidden: []int{16}, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	// Insert a copy of an existing vector, slightly perturbed: it must be
	// findable as its own nearest neighbor with a single probe.
	nv := append([]float32(nil), vecs[5]...)
	nv[0] += 0.01
	id, err := ix.Add(nv)
	if err != nil {
		t.Fatal(err)
	}
	if id != 400 {
		t.Fatalf("id = %d", id)
	}
	if ix.Len() != 401 {
		t.Fatalf("Len = %d", ix.Len())
	}
	res, err := ix.Search(nv, 1, SearchOptions{Probes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != id {
		t.Fatalf("inserted vector not found: %+v", res)
	}
	// Dimension mismatch rejected.
	if _, err := ix.Add(make([]float32, 3)); err == nil {
		t.Fatal("dim mismatch should fail")
	}
}

func TestAddIntoHierarchy(t *testing.T) {
	vecs, _ := clusteredVectors(19, 400, 8, 4)
	ix, err := Build(vecs, Options{Hierarchy: []int{2, 2}, Epochs: 15, Hidden: []int{8}, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	nv := append([]float32(nil), vecs[9]...)
	id, err := ix.Add(nv)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.Search(nv, 2, SearchOptions{Probes: 1})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if r.ID == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted duplicate not in top-2: %+v", res)
	}
}

func TestClusterFacade(t *testing.T) {
	vecs, truth := clusteredVectors(13, 400, 4, 3)
	labels, err := Cluster(vecs, 3, Options{Epochs: 120, Hidden: []int{16}, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 400 {
		t.Fatalf("labels len %d", len(labels))
	}
	// Majority-map purity must beat chance clearly on separated blobs.
	counts := map[[2]int]int{}
	for i := range labels {
		counts[[2]int{labels[i], truth[i]}]++
	}
	correct := 0
	for c := 0; c < 3; c++ {
		best := 0
		for key, n := range counts {
			if key[0] == c && n > best {
				best = n
			}
		}
		correct += best
	}
	if purity := float64(correct) / 400; purity < 0.8 {
		t.Fatalf("purity %.3f", purity)
	}
	if _, err := Cluster(vecs[:2], 3, Options{}); err == nil {
		t.Fatal("k>n should fail")
	}
}

// TestCorpusValidation: Build and Cluster refuse ragged, zero-width and
// non-finite corpora with ErrInvalid instead of panicking in the dataset
// constructor or clustering NaN rows. (Build's NaN case is in
// TestNonFiniteVectorsRejected.)
func TestCorpusValidation(t *testing.T) {
	vecs, _ := clusteredVectors(15, 8, 4, 2)
	ragged := append([][]float32(nil), vecs...)
	ragged[5] = ragged[5][:3]
	zeroWidth := make([][]float32, 8)
	for i := range zeroWidth {
		zeroWidth[i] = []float32{}
	}
	withNaN := append([][]float32(nil), vecs...)
	withNaN[3] = append([]float32(nil), vecs[3]...)
	withNaN[3][1] = float32(math.NaN())
	build := func(v [][]float32) error { _, err := Build(v, Options{Bins: 2, Epochs: 1}); return err }
	cluster := func(v [][]float32) error { _, err := Cluster(v, 2, Options{Epochs: 1}); return err }
	for _, tc := range []struct {
		name   string
		call   func([][]float32) error
		corpus [][]float32
	}{
		{"Build ragged", build, ragged},
		{"Cluster ragged", cluster, ragged},
		{"Build zero-width", build, zeroWidth},
		{"Cluster zero-width", cluster, zeroWidth},
		{"Cluster NaN", cluster, withNaN},
	} {
		if err := tc.call(tc.corpus); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: error %v, want ErrInvalid", tc.name, err)
		}
	}
}

// TestOptionValidation: every caller mistake in Options (or in Cluster's k)
// is an ErrInvalid error returned before any model or codebook trains —
// Logf, which every training epoch and the codebook trainer write to, is
// never called.
func TestOptionValidation(t *testing.T) {
	vecs, _ := clusteredVectors(16, 64, 128, 4)
	quant := func(q Quantization) Options {
		q.Enabled = true
		return Options{Bins: 2, Epochs: 1, Quantize: q}
	}
	for _, tc := range []struct {
		name    string
		vectors [][]float32
		opt     Options
		k       int // > 0: Cluster(vectors, k, opt) instead of Build
	}{
		{"fewer than 4 vectors", vecs[:3], Options{Bins: 2}, 0},
		{"Hierarchy with Ensemble > 1", vecs, Options{Hierarchy: []int{2, 2}, Ensemble: 2}, 0},
		{"branching factor 1", vecs, Options{Hierarchy: []int{4, 1}}, 0},
		{"Epochs -1", vecs, Options{Bins: 2, Epochs: -1}, 0},
		{"Bins 1", vecs, Options{Bins: 1}, 0},
		{"Eta -1", vecs, Options{Bins: 2, Eta: Float(-1)}, 0},
		{"Ensemble -1", vecs, Options{Bins: 2, Ensemble: -1}, 0},
		{"Subspaces 3 on 128-d", vecs, quant(Quantization{Subspaces: 3}), 0},
		{"K 300", vecs, quant(Quantization{K: 300}), 0},
		{"Cluster k > n", vecs[:8], Options{}, 9},
		{"Cluster k = 1", vecs, Options{}, 1},
	} {
		logged := false
		tc.opt.Logf = func(string, ...any) { logged = true }
		var err error
		if tc.k > 0 {
			_, err = Cluster(tc.vectors, tc.k, tc.opt)
		} else {
			_, err = Build(tc.vectors, tc.opt)
		}
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: error %v, want ErrInvalid", tc.name, err)
		}
		if logged {
			t.Errorf("%s: training started before the options were refused", tc.name)
		}
	}
}
