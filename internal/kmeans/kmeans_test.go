package kmeans

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vecmath"
)

func blobs(seed int64, n, dim, k int) *dataset.Labeled {
	return dataset.GaussianMixture(dataset.GaussianMixtureConfig{
		N: n, Dim: dim, Clusters: k, ClusterStd: 0.1, CenterBox: 5,
	}, rand.New(rand.NewSource(seed)))
}

func TestRunRecoversSeparatedClusters(t *testing.T) {
	l := blobs(1, 500, 4, 4)
	res, err := Run(l.Dataset, 4, Options{Seed: 2, Restarts: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Every fitted cluster should be dominated by one true cluster.
	for c := 0; c < 4; c++ {
		counts := map[int]int{}
		total := 0
		for i, a := range res.Assign {
			if int(a) == c {
				counts[l.Labels[i]]++
				total++
			}
		}
		if total == 0 {
			t.Fatalf("cluster %d empty", c)
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		if float64(best)/float64(total) < 0.95 {
			t.Fatalf("cluster %d impure: %v", c, counts)
		}
	}
}

func TestInertiaDecreasesWithK(t *testing.T) {
	l := blobs(3, 300, 4, 4)
	var prev float64 = -1
	for _, k := range []int{1, 2, 4, 8} {
		res, err := Run(l.Dataset, k, Options{Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && res.Inertia > prev*1.01 {
			t.Fatalf("inertia rose from %v to %v at k=%d", prev, res.Inertia, k)
		}
		prev = res.Inertia
	}
}

// nearest returns the index of the centroid closest to q, the first on a tie.
func nearest(r *Result, q []float32) int {
	best, bi := float32(math.MaxFloat32), 0
	for c := 0; c < r.Centroids.N; c++ {
		if d := vecmath.SquaredL2(q, r.Centroids.Row(c)); d < best {
			best, bi = d, c
		}
	}
	return bi
}

func TestAssignConsistentWithNearest(t *testing.T) {
	l := blobs(5, 200, 3, 3)
	res, err := Run(l.Dataset, 3, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < l.N; i++ {
		want := nearest(res, l.Row(i))
		if int(res.Assign[i]) != want {
			t.Fatalf("point %d assigned %d, nearest %d", i, res.Assign[i], want)
		}
	}
}

func TestNearestKOrdering(t *testing.T) {
	l := blobs(7, 200, 3, 5)
	res, err := Run(l.Dataset, 5, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	q := l.Row(0)
	got := res.NearestK(q, 3)
	if len(got) != 3 {
		t.Fatalf("len %d", len(got))
	}
	var prev float32 = -1
	for _, c := range got {
		d := vecmath.SquaredL2(q, res.Centroids.Row(c))
		if d < prev {
			t.Fatal("NearestK not ascending")
		}
		prev = d
	}
	if got[0] != nearest(res, q) {
		t.Fatal("NearestK[0] != Nearest")
	}
	if len(res.NearestK(q, 99)) != 5 {
		t.Fatal("NearestK should clamp to k")
	}
}

func TestKValidation(t *testing.T) {
	l := blobs(9, 50, 2, 2)
	if _, err := Run(l.Dataset, 0, Options{}); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, err := Run(l.Dataset, 51, Options{}); err == nil {
		t.Fatal("k>n should fail")
	}
	// k == n is legal (each point its own cluster).
	if _, err := Run(l.Dataset, 50, Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexCandidates(t *testing.T) {
	l := blobs(13, 300, 4, 4)
	ix, err := NewIndex(l.Dataset, 4, Options{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	// Bin sizes must sum to n.
	total := 0
	for _, b := range ix.Bins {
		total += len(b)
	}
	if total != l.N {
		t.Fatalf("bin sizes sum %d", total)
	}
	// Probing all bins returns the whole dataset exactly once.
	all := ix.Candidates(l.Row(0), 4)
	if len(all) != l.N {
		t.Fatalf("|C| = %d", len(all))
	}
	seen := map[int]bool{}
	for _, i := range all {
		if seen[i] {
			t.Fatalf("duplicate %d", i)
		}
		seen[i] = true
	}
	// One probe returns the query point's own bucket.
	one := ix.Candidates(l.Row(0), 1)
	own := ix.Result.Assign[0]
	if len(one) != len(ix.Bins[own]) {
		t.Fatalf("single probe size %d, want %d", len(one), len(ix.Bins[own]))
	}
}

func TestIdenticalPointsDoNotCrash(t *testing.T) {
	d := dataset.New(20, 3)
	// All-zero dataset: every distance ties at 0.
	if _, err := Run(d, 4, Options{Seed: 15}); err != nil {
		t.Fatal(err)
	}
}
