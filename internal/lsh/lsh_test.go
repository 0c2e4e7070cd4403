package lsh

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

func uniform(seed int64, n, d int) *dataset.Dataset {
	return dataset.Uniform(n, d, rand.New(rand.NewSource(seed)))
}

func TestCrossPolytopeCoverage(t *testing.T) {
	ds := uniform(1, 500, 16)
	cp, err := NewCrossPolytope(ds, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range cp.Bins {
		total += len(b)
	}
	if total != ds.N {
		t.Fatalf("bins hold %d points, want %d", total, ds.N)
	}
	// Probing more bins than exist clamps to all of them.
	if got := cp.Candidates(ds.Row(0), 99); len(got) != ds.N {
		t.Fatalf("clamped probe returned %d", len(got))
	}
	// Probing all bins returns everything exactly once.
	all := cp.Candidates(ds.Row(0), 8)
	if len(all) != ds.N {
		t.Fatalf("|C| = %d", len(all))
	}
	seen := map[int]bool{}
	for _, i := range all {
		if seen[i] {
			t.Fatalf("duplicate %d", i)
		}
		seen[i] = true
	}
}

func TestCrossPolytopeFirstProbeIsHomeBin(t *testing.T) {
	ds := uniform(3, 300, 8)
	cp, err := NewCrossPolytope(ds, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A dataset point's single-probe candidates must include itself.
	for i := 0; i < 50; i++ {
		got := cp.Candidates(ds.Row(i), 1)
		found := false
		for _, c := range got {
			if c == i {
				found = true
			}
		}
		if !found {
			t.Fatalf("point %d not in its own home bin probe", i)
		}
	}
}

func TestCrossPolytopeValidation(t *testing.T) {
	ds := uniform(5, 10, 4)
	if _, err := NewCrossPolytope(ds, 3, 1); err == nil {
		t.Fatal("odd m should fail")
	}
	if _, err := NewCrossPolytope(ds, 0, 1); err == nil {
		t.Fatal("m=0 should fail")
	}
}

func TestCrossPolytopeDeterministicForSeed(t *testing.T) {
	ds := uniform(6, 100, 8)
	a, _ := NewCrossPolytope(ds, 4, 7)
	b, _ := NewCrossPolytope(ds, 4, 7)
	for i := range a.Bins {
		if len(a.Bins[i]) != len(b.Bins[i]) {
			t.Fatal("same seed produced different partitions")
		}
	}
}
