package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

func TestDBSCANOnMoons(t *testing.T) {
	l := dataset.Moons(400, 0.04, rand.New(rand.NewSource(1)))
	labels := DBSCAN(l.Dataset, 0.18, 5)
	// DBSCAN is the classical winner on moons: near-perfect ARI.
	if ari := ARI(labels, l.Labels); ari < 0.95 {
		t.Fatalf("DBSCAN moons ARI %.3f", ari)
	}
}

func TestDBSCANOnCircles(t *testing.T) {
	l := dataset.Circles(400, 0.5, 0.02, rand.New(rand.NewSource(2)))
	labels := DBSCAN(l.Dataset, 0.15, 4)
	if ari := ARI(labels, l.Labels); ari < 0.95 {
		t.Fatalf("DBSCAN circles ARI %.3f", ari)
	}
}

func TestDBSCANMarksIsolatedNoise(t *testing.T) {
	d := dataset.New(12, 2)
	// Tight 10-point cluster at origin plus two far isolated points.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		d.Row(i)[0] = float32(rng.NormFloat64()) * 0.01
		d.Row(i)[1] = float32(rng.NormFloat64()) * 0.01
	}
	d.Row(10)[0] = 100
	d.Row(11)[0] = -100
	labels := DBSCAN(d, 0.5, 3)
	if labels[10] != Noise || labels[11] != Noise {
		t.Fatalf("isolated points labeled %d, %d", labels[10], labels[11])
	}
	for i := 0; i < 10; i++ {
		if labels[i] != 0 {
			t.Fatalf("cluster point %d labeled %d", i, labels[i])
		}
	}
}

func TestSpectralOnCircles(t *testing.T) {
	l := dataset.Circles(240, 0.45, 0.02, rand.New(rand.NewSource(4)))
	labels, err := Spectral(l.Dataset, SpectralConfig{K: 2, Neighbors: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ari := ARI(labels, l.Labels); ari < 0.9 {
		t.Fatalf("spectral circles ARI %.3f", ari)
	}
}

func TestSpectralOnBlobs(t *testing.T) {
	l := dataset.GaussianMixture(dataset.GaussianMixtureConfig{
		N: 240, Dim: 2, Clusters: 3, ClusterStd: 0.08, CenterBox: 4,
	}, rand.New(rand.NewSource(6)))
	labels, err := Spectral(l.Dataset, SpectralConfig{K: 3, Neighbors: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if ari := ARI(labels, l.Labels); ari < 0.9 {
		t.Fatalf("spectral blobs ARI %.3f", ari)
	}
}

func TestSpectralValidation(t *testing.T) {
	d := dataset.Uniform(20, 2, rand.New(rand.NewSource(8)))
	if _, err := Spectral(d, SpectralConfig{K: 1}); err == nil {
		t.Fatal("K=1 should fail")
	}
	if _, err := Spectral(d, SpectralConfig{K: 21}); err == nil {
		t.Fatal("K>n should fail")
	}
}

func TestARIProperties(t *testing.T) {
	// Identical labelings (up to renaming) score 1; independent random
	// labelings score ≈ 0.
	a := []int{0, 0, 1, 1, 2, 2}
	b := []int{5, 5, 9, 9, 7, 7}
	if ari := ARI(a, b); ari != 1 {
		t.Fatalf("renamed identical ARI = %v", ari)
	}
	rng := rand.New(rand.NewSource(9))
	x := make([]int, 2000)
	y := make([]int, 2000)
	for i := range x {
		x[i] = rng.Intn(4)
		y[i] = rng.Intn(4)
	}
	if ari := ARI(x, y); ari < -0.05 || ari > 0.05 {
		t.Fatalf("random ARI = %v, want ≈0", ari)
	}
	if ARI([]int{1}, []int{1, 2}) != 0 {
		t.Fatal("length mismatch should score 0")
	}
}

func TestARIBounds(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(5)
			b[i] = rng.Intn(5)
		}
		ari := ARI(a, b)
		return ari >= -1.000001 && ari <= 1.000001
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNMIProperties(t *testing.T) {
	a := []int{0, 0, 1, 1}
	if nmi := NMI(a, []int{3, 3, 8, 8}); nmi < 0.999 {
		t.Fatalf("identical NMI = %v", nmi)
	}
	// Independent labelings have low NMI.
	rng := rand.New(rand.NewSource(10))
	x := make([]int, 3000)
	y := make([]int, 3000)
	for i := range x {
		x[i] = rng.Intn(3)
		y[i] = rng.Intn(3)
	}
	if nmi := NMI(x, y); nmi > 0.05 {
		t.Fatalf("random NMI = %v", nmi)
	}
}

func TestNMIBounds(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(4) - 1 // include noise labels
			b[i] = rng.Intn(4)
		}
		nmi := NMI(a, b)
		return nmi >= -1e-9 && nmi <= 1+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNoiseAsSingletonsConvention(t *testing.T) {
	// Two noise points must not count as the same cluster.
	a := []int{Noise, Noise, 0, 0}
	b := []int{0, 1, 2, 2}
	// Under noise-as-singletons both partitions are {x},{y},{z,w}: ARI 1.
	if ari := ARI(a, b); ari != 1 {
		t.Fatalf("noise singleton ARI = %v", ari)
	}
}
