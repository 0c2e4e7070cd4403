package ivfpq

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/quant"
)

func blobs(seed int64, n, dim int) *dataset.Dataset {
	return dataset.GaussianMixture(dataset.GaussianMixtureConfig{
		N: n, Dim: dim, Clusters: 10, ClusterStd: 0.2, CenterBox: 3,
	}, rand.New(rand.NewSource(seed))).Dataset
}

func TestIVFPQReasonableRecallWithRerank(t *testing.T) {
	ds := blobs(6, 800, 16)
	ix, err := Build(ds, Config{
		NList: 8, Seed: 7,
		PQ: quant.Config{Subspaces: 4, K: 16, Seed: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	gt := knn.GroundTruth(ds, ds, 10)
	var recall float64
	for qi := 0; qi < 40; qi++ {
		ns := ix.Search(ds.Row(qi), 10, 4)
		recall += knn.RecallNeighbors(ns, gt[qi])
	}
	recall /= 40
	if recall < 0.7 {
		t.Fatalf("IVF-PQ recall %.3f", recall)
	}
	// Results come only from the probed lists.
	for qi := 0; qi < 40; qi++ {
		q := ds.Row(qi)
		for _, np := range []int{1, 2} {
			probed := map[int]bool{}
			for _, c := range ix.coarse.NearestK(q, np) {
				for _, i := range ix.lists[c] {
					probed[int(i)] = true
				}
			}
			for _, nb := range ix.Search(q, 10, np) {
				if !probed[nb.Index] {
					t.Fatalf("query %d, %d probes: result %d outside the probed lists", qi, np, nb.Index)
				}
			}
		}
	}
}

func TestCandidateCount(t *testing.T) {
	ds := blobs(9, 300, 8)
	ix, err := Build(ds, Config{NList: 4, Seed: 10, PQ: quant.Config{Subspaces: 2, K: 16, Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Row(0)
	if got := ix.CandidateCount(q, 4); got != ds.N {
		t.Fatalf("all-list candidate count %d, want %d", got, ds.N)
	}
	c1, c2 := ix.CandidateCount(q, 1), ix.CandidateCount(q, 2)
	if c2 < c1 {
		t.Fatal("candidate count must grow with probes")
	}
}

func TestBuildValidation(t *testing.T) {
	ds := blobs(11, 50, 8)
	if _, err := Build(ds, Config{NList: 0}); err == nil {
		t.Fatal("NList=0 should fail")
	}
	if _, err := Build(ds, Config{NList: 4, PQ: quant.Config{Subspaces: 0}}); err == nil {
		t.Fatal("bad PQ config should fail")
	}
}
