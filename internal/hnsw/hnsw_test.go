package hnsw

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
)

func blobs(seed int64, n, dim int) *dataset.Dataset {
	return dataset.GaussianMixture(dataset.GaussianMixtureConfig{
		N: n, Dim: dim, Clusters: 10, ClusterStd: 0.2, CenterBox: 3,
	}, rand.New(rand.NewSource(seed))).Dataset
}

func TestBuildAndExactSelfQuery(t *testing.T) {
	ds := blobs(1, 500, 16)
	ix, err := Build(ds, Config{M: 8, EfConstruction: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ix.maxLevel < 0 {
		t.Fatal("no levels")
	}
	// Self queries must return the point itself first.
	for i := 0; i < 100; i++ {
		ns := ix.Search(ds.Row(i), 1, 30)
		if len(ns) != 1 || ns[0].Index != i {
			t.Fatalf("self query %d returned %v", i, ns)
		}
	}
}

func TestRecallAtHighEf(t *testing.T) {
	ds := blobs(3, 1000, 16)
	ix, err := Build(ds, Config{M: 12, EfConstruction: 120, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	queries := blobs(5, 50, 16)
	gt := knn.GroundTruth(ds, queries, 10)
	var recall float64
	for qi := 0; qi < queries.N; qi++ {
		ns := ix.Search(queries.Row(qi), 10, 200)
		recall += knn.RecallNeighbors(ns, gt[qi])
	}
	recall /= float64(queries.N)
	if recall < 0.9 {
		t.Fatalf("recall@ef=200 is %.3f, want ≥ 0.9", recall)
	}
}

func TestRecallImprovesWithEf(t *testing.T) {
	ds := blobs(6, 800, 12)
	ix, err := Build(ds, Config{M: 8, EfConstruction: 80, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	queries := blobs(8, 40, 12)
	gt := knn.GroundTruth(ds, queries, 10)
	recallAt := func(ef int) float64 {
		var r float64
		for qi := 0; qi < queries.N; qi++ {
			r += knn.RecallNeighbors(ix.Search(queries.Row(qi), 10, ef), gt[qi])
		}
		return r / float64(queries.N)
	}
	lo, hi := recallAt(10), recallAt(150)
	if hi < lo-0.02 {
		t.Fatalf("recall did not improve with ef: %.3f -> %.3f", lo, hi)
	}
	if hi < 0.85 {
		t.Fatalf("recall@150 = %.3f", hi)
	}
}

func TestDegreeBounds(t *testing.T) {
	ds := blobs(9, 400, 8)
	cfg := Config{M: 6, EfConstruction: 40, Seed: 10}
	ix, err := Build(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for l, layer := range ix.links {
		maxD := cfg.M
		if l == 0 {
			maxD = 2 * cfg.M
		}
		for v, nbrs := range layer {
			if len(nbrs) > maxD {
				t.Fatalf("layer %d vertex %d degree %d > %d", l, v, len(nbrs), maxD)
			}
			for _, nb := range nbrs {
				if nb == v {
					t.Fatalf("self edge at %d", v)
				}
			}
		}
	}
}

func TestBaseLayerReachability(t *testing.T) {
	// Every vertex must be reachable on layer 0 from the entry point
	// (undirected BFS over the bidirectional links).
	ds := blobs(11, 300, 8)
	ix, err := Build(ds, Config{M: 8, EfConstruction: 60, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	adj := make(map[int32][]int32)
	for v, nbrs := range ix.links[0] {
		for _, nb := range nbrs {
			adj[v] = append(adj[v], nb)
			adj[nb] = append(adj[nb], v)
		}
	}
	visited := map[int32]bool{ix.entry: true}
	queue := []int32{ix.entry}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, nb := range adj[v] {
			if !visited[nb] {
				visited[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	if len(visited) != ds.N {
		t.Fatalf("only %d of %d vertices reachable on layer 0", len(visited), ds.N)
	}
}

func TestEmptyDatasetFails(t *testing.T) {
	if _, err := Build(dataset.New(0, 4), Config{}); err == nil {
		t.Fatal("empty dataset should fail")
	}
}

func TestSingletonDataset(t *testing.T) {
	d := dataset.New(1, 4)
	ix, err := Build(d, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ns := ix.Search(d.Row(0), 3, 10)
	if len(ns) != 1 || ns[0].Index != 0 {
		t.Fatalf("singleton search = %v", ns)
	}
}
