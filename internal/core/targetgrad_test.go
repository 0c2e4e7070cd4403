package core

import (
	"bytes"
	"testing"
)

func TestTargetGradModeTrains(t *testing.T) {
	ds, mat := testData(t, 500, 8, 4, 21)
	cfg := smallCfg(4)
	cfg.TargetGrad = true
	cfg.Epochs = 30
	p, stats, err := Train(ds, mat, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Params == 0 || stats.Duration <= 0 {
		t.Fatalf("stats %+v", stats)
	}
	// Partition invariants hold in this mode too.
	requireRoutedPartition(t, p, ds)
	// Quality on separated clusters: most neighborhoods kept together.
	sep := p.SeparatedNeighbors(mat, 5)
	total := 0
	for _, s := range sep {
		total += s
	}
	if frac := float64(total) / float64(len(sep)*5); frac > 0.3 {
		t.Fatalf("separated fraction %.3f", frac)
	}
}

func TestTargetGradWithWeights(t *testing.T) {
	ds, mat := testData(t, 300, 4, 2, 22)
	cfg := smallCfg(2)
	cfg.TargetGrad = true
	cfg.Epochs = 10
	w := make([]float32, ds.N)
	for i := range w {
		w[i] = float32(i%3) + 0.5
	}
	if _, _, err := Train(ds, mat, cfg, w); err != nil {
		t.Fatal(err)
	}
}

func TestEnsembleSaveLoadRoundTrip(t *testing.T) {
	ds, mat := testData(t, 400, 6, 3, 23)
	ens, _, err := TrainEnsemble(ds, mat, smallCfg(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveEnsemble(&buf, ens); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEnsemble(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != 2 {
		t.Fatalf("size %d", loaded.Size())
	}
	// Candidate sets must be identical before and after the round trip.
	var qs QueryScratch
	for qi := 0; qi < 20; qi++ {
		a := ens.CandidatesWith(&qs, ds.Row(qi), 1, BestConfidence)
		b := loaded.CandidatesWith(&qs, ds.Row(qi), 1, BestConfidence)
		if len(a) != len(b) {
			t.Fatalf("query %d: candidate sizes %d vs %d", qi, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d: candidate %d differs", qi, i)
			}
		}
	}
}

func TestHierarchySaveLoadRoundTrip(t *testing.T) {
	ds, _ := testData(t, 400, 6, 3, 24)
	cfg := Config{KPrime: 5, Eta: 5, Epochs: 8, Hidden: []int{8}, Seed: 4}
	h, _, err := TrainHierarchy(ds, []int{2, 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveHierarchy(&buf, h); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadHierarchy(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.M != h.M {
		t.Fatalf("M %d, want %d", loaded.M, h.M)
	}
	var qs QueryScratch
	for qi := 0; qi < 20; qi++ {
		a := OneTree(h).CandidatesWith(&qs, ds.Row(qi), 2, BestConfidence)
		b := OneTree(loaded).CandidatesWith(&qs, ds.Row(qi), 2, BestConfidence)
		if len(a) != len(b) {
			t.Fatalf("query %d: sizes %d vs %d", qi, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d: candidate %d differs", qi, i)
			}
		}
	}
}

func TestLoadHierarchyRejectsGarbage(t *testing.T) {
	if _, err := LoadHierarchy(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestLoadEnsembleRejectsGarbage(t *testing.T) {
	if _, err := LoadEnsemble(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("expected decode error")
	}
}
