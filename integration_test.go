package usp

// End-to-end integration tests across module boundaries: the full public
// pipeline on high-dimensional sparse data, determinism of seeded builds,
// and cross-method sanity (the learned index must beat random candidate
// sets of equal size on clustered data).

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
)

func TestPipelineOnHighDimSparseData(t *testing.T) {
	if testing.Short() {
		t.Skip("slow integration test")
	}
	// MNIST-like: 784-d sparse vectors — exercises the BatchNorm path on
	// mostly-zero columns and wide input layers.
	rng := rand.New(rand.NewSource(1))
	full := dataset.MNISTLike(700, rng)
	base, queries := dataset.SplitQueries(full, 50, rng)
	gt := knn.GroundTruth(base, queries, 10)

	ix, err := Build(base.Rows(), Options{
		Bins: 8, Epochs: 25, Hidden: []int{32}, Seed: 2, Eta: Float(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	var recall, cands float64
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		c, err := ix.CandidateSet(q, SearchOptions{Probes: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ix.Search(q, 10, SearchOptions{Probes: 2})
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int, len(res))
		for i, r := range res {
			ids[i] = r.ID
		}
		recall += knn.Recall(ids, gt[qi])
		cands += float64(len(c))
	}
	recall /= float64(queries.N)
	cands /= float64(queries.N)
	if cands >= float64(base.N) {
		t.Fatalf("candidate sets did not shrink: %v of %d", cands, base.N)
	}
	// With 2 of 8 bins probed (~25% of points), clustered data should
	// deliver far more than 25% recall.
	if recall < 0.5 {
		t.Fatalf("recall %.3f scanning %.0f/%d points", recall, cands, base.N)
	}
}

func TestSeededBuildIsDeterministic(t *testing.T) {
	vecs, _ := clusteredVectors(31, 400, 8, 4)
	build := func() *Index {
		ix, err := Build(vecs, Options{Bins: 4, Epochs: 20, Hidden: []int{16}, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	a, b := build(), build()
	for qi := 0; qi < 30; qi++ {
		ca, _ := a.CandidateSet(vecs[qi], SearchOptions{Probes: 1})
		cb, _ := b.CandidateSet(vecs[qi], SearchOptions{Probes: 1})
		if len(ca) != len(cb) {
			t.Fatalf("query %d: candidate sizes differ (%d vs %d)", qi, len(ca), len(cb))
		}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("query %d: candidates diverge at %d", qi, i)
			}
		}
	}

	// A build depends on the data, the options and the seed, not on how many
	// cores trained it: hierarchy subtrees, PQ subspaces and the router
	// beside the codebooks run concurrently at GOMAXPROCS 2 and one after
	// another at 1, and the snapshots must be the same bytes. Logf is set so
	// the race detector sees the concurrent training loops call it.
	var lines atomic.Int64
	logf := func(string, ...any) { lines.Add(1) }
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"quantized [4,4] hierarchy", Options{Hierarchy: []int{4, 4}, Epochs: 5, Hidden: []int{16}, Seed: 9,
			Quantize: Quantization{Enabled: true, Subspaces: 4, K: 16}, Logf: logf}},
		{"2-member ensemble", Options{Bins: 4, Ensemble: 2, Epochs: 5, Hidden: []int{16}, Seed: 9, Logf: logf}},
	} {
		save := func(procs int) []byte {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			ix, err := Build(vecs, tc.opt)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			var buf bytes.Buffer
			if err := ix.Save(&buf); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return buf.Bytes()
		}
		one, two, again := save(1), save(2), save(2)
		if !bytes.Equal(one, two) {
			t.Errorf("%s: snapshot at GOMAXPROCS 1 differs from GOMAXPROCS 2", tc.name)
		}
		if !bytes.Equal(two, again) {
			t.Errorf("%s: two builds at GOMAXPROCS 2 differ", tc.name)
		}
	}
	if lines.Load() == 0 {
		t.Error("Logf was never called")
	}
}

func TestLearnedIndexBeatsRandomSubsets(t *testing.T) {
	if testing.Short() {
		t.Skip("slow integration test")
	}
	rng := rand.New(rand.NewSource(5))
	full := dataset.GaussianMixture(dataset.GaussianMixtureConfig{
		N: 1300, Dim: 32, Clusters: 12, ClusterStd: 0.8, CenterBox: 3,
	}, rng)
	base, queries := dataset.SplitQueries(full.Dataset, 100, rng)
	gt := knn.GroundTruth(base, queries, 10)
	ix, err := Build(base.Rows(), Options{Bins: 12, Epochs: 30, Hidden: []int{32}, Seed: 6, Eta: Float(7)})
	if err != nil {
		t.Fatal(err)
	}
	var uspRecall, randRecall float64
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		c, _ := ix.CandidateSet(q, SearchOptions{Probes: 1})
		res, _ := ix.Search(q, 10, SearchOptions{Probes: 1})
		ids := make([]int, len(res))
		for i, r := range res {
			ids[i] = r.ID
		}
		uspRecall += knn.Recall(ids, gt[qi])
		perm := rng.Perm(base.N)[:len(c)]
		randRecall += knn.RecallNeighbors(knn.SearchSubset(base, perm, q, 10), gt[qi])
	}
	if uspRecall < randRecall*1.5 {
		t.Fatalf("USP recall %.3f not clearly above size-matched random %.3f",
			uspRecall/float64(queries.N), randRecall/float64(queries.N))
	}
}
