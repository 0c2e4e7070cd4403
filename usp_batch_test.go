package usp

import (
	"math/rand"
	"testing"
)

// requireBitIdentical compares a batch answer against looped single-query
// Search calls with exact equality — ids AND float32 distance bits. The
// staged batch pipeline shares its inference and scan kernels with the
// single-row path, so any divergence at all is a correctness bug.
func requireBitIdentical(t *testing.T, ix *Index, queries [][]float32, k int, opt SearchOptions, batch [][]Result) {
	t.Helper()
	if len(batch) != len(queries) {
		t.Fatalf("%d batch rows, want %d", len(batch), len(queries))
	}
	s := ix.NewSearcher()
	for i, q := range queries {
		single, err := s.Search(q, k, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch[i]) != len(single) {
			t.Fatalf("query %d: batch %d results, single %d", i, len(batch[i]), len(single))
		}
		for j := range single {
			if batch[i][j] != single[j] {
				t.Fatalf("query %d result %d: batch %+v, single %+v (must be bit-identical)",
					i, j, batch[i][j], single[j])
			}
		}
	}
}

// TestSearchBatchBitIdentical pins the tentpole invariant: the staged batch
// pipeline — batched routing forward pass, batched ADC-table build, per-query
// gather + scan — returns results bit-identical to looped single Search, for
// an ensemble and a hierarchy, with live spill inserts and tombstones present.
func TestSearchBatchBitIdentical(t *testing.T) {
	t.Run("ensemble", func(t *testing.T) {
		ix, vecs := buildSmallIndex(t, 71, 2)
		// Live mutations so the batch path also exercises spill extras and
		// the tombstone filter against a non-compacted epoch.
		rng := rand.New(rand.NewSource(72))
		for i := 0; i < 40; i++ {
			nv := make([]float32, len(vecs[0]))
			copy(nv, vecs[rng.Intn(len(vecs))])
			nv[0] += float32(rng.NormFloat64()) * 0.01
			if _, err := ix.Add(nv); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			if err := ix.Delete(rng.Intn(600)); err != nil {
				t.Fatal(err)
			}
		}
		for _, opt := range []SearchOptions{
			{Probes: 1},
			{Probes: 2},
		} {
			batch, err := ix.SearchBatch(vecs[:80], 10, opt)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, ix, vecs[:80], 10, opt, batch)
		}
	})

	t.Run("hierarchy", func(t *testing.T) {
		vecs, _ := clusteredVectors(73, 600, 8, 4)
		ix, err := Build(vecs, Options{Hierarchy: []int{2, 2}, Epochs: 15, Hidden: []int{8}, Seed: 74})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := ix.Delete(i * 7); err != nil {
				t.Fatal(err)
			}
		}
		opt := SearchOptions{Probes: 2}
		batch, err := ix.SearchBatch(vecs[:60], 5, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, ix, vecs[:60], 5, opt, batch)
	})

	// A [4,4] tree probed at 1 to all 16 leaves: a single query's
	// best-first walk stops early at the small probe counts, the batch runs
	// every model, and the Adds were routed best first at m′ = 1.
	t.Run("hierarchy-quantized", func(t *testing.T) {
		vecs, _ := clusteredVectors(78, 1200, 16, 8)
		ix, err := Build(vecs[:1000], Options{
			Hierarchy: []int{4, 4}, Epochs: 10, Hidden: []int{8}, Seed: 79,
			Quantize: Quantization{Enabled: true, Subspaces: 4, K: 32},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vecs[1000:] {
			if _, err := ix.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			if err := ix.Delete(i * 11); err != nil {
				t.Fatal(err)
			}
		}
		for _, probes := range []int{1, 2, 4, 16} {
			for _, rerank := range []int{0, -1} {
				opt := SearchOptions{Probes: probes, RerankK: rerank}
				batch, err := ix.SearchBatch(vecs[900:1100], 10, opt)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, ix, vecs[900:1100], 10, opt, batch)
			}
		}
	})

	t.Run("quantized", func(t *testing.T) {
		_, ix, vecs := buildQuantizedPair(t, 75, 600, 16, Quantization{Subspaces: 4, K: 32})
		for _, opt := range []SearchOptions{
			{Probes: 2},              // ADC + exact re-rank
			{Probes: 2, RerankK: -1}, // ADC only
		} {
			batch, err := ix.SearchBatch(vecs[:60], 10, opt)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, ix, vecs[:60], 10, opt, batch)
		}
	})
}

// TestSearchBatchScanned pins the per-query candidate-set sizes the serving
// tier reports: SearchBatchScanned must agree with the single-query
// Searcher.Scanned value row for row.
func TestSearchBatchScanned(t *testing.T) {
	ix, vecs := buildSmallIndex(t, 77, 2)
	opt := SearchOptions{Probes: 2}
	res, scanned, err := ix.SearchBatchScanned(vecs[:32], 10, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 32 || len(scanned) != 32 {
		t.Fatalf("got %d rows / %d scanned", len(res), len(scanned))
	}
	s := ix.NewSearcher()
	for i, q := range vecs[:32] {
		if _, err := s.Search(q, 10, opt); err != nil {
			t.Fatal(err)
		}
		if scanned[i] != s.Scanned() {
			t.Fatalf("query %d: scanned %d, want %d", i, scanned[i], s.Scanned())
		}
	}
}

// TestBatchRoutingAllocations gates the batched routing path at 0 allocs/op:
// with a warmed Searcher and a pre-capped arena, processing a staged chunk —
// batched forward pass, per-query gather, scan, arena reslice — allocates
// nothing. (The public SearchBatch additionally allocates the output rows
// and per-worker arenas, by design.)
func TestBatchRoutingAllocations(t *testing.T) {
	run := func(t *testing.T, ix *Index, queries [][]float32, opt SearchOptions) {
		t.Helper()
		const k = 5
		s := ix.NewSearcher()
		ep := ix.live.Load()
		out := make([][]Result, len(queries))
		arena := make([]Result, 0, len(queries)*k)
		// Warm every scratch buffer.
		s.searchChunk(ep, queries, k, opt, out, arena, nil)
		allocs := testing.AllocsPerRun(50, func() {
			s.searchChunk(ep, queries, k, opt, out, arena[:0], nil)
		})
		if allocs != 0 {
			t.Fatalf("batched routing path allocates %v allocs/op, want 0", allocs)
		}
	}
	t.Run("ensemble-best", func(t *testing.T) {
		ix, vecs := buildSmallIndex(t, 79, 2)
		run(t, ix, vecs[:24], SearchOptions{Probes: 2})
	})
	t.Run("hierarchy", func(t *testing.T) {
		vecs, _ := clusteredVectors(81, 600, 8, 4)
		ix, err := Build(vecs, Options{Hierarchy: []int{2, 2}, Epochs: 10, Hidden: []int{8}, Seed: 82})
		if err != nil {
			t.Fatal(err)
		}
		run(t, ix, vecs[:24], SearchOptions{Probes: 2})
	})
	t.Run("quantized", func(t *testing.T) {
		_, ix, vecs := buildQuantizedPair(t, 83, 600, 16, Quantization{Subspaces: 4, K: 32})
		run(t, ix, vecs[:24], SearchOptions{Probes: 2})
	})
	// adc_large's shape: a quantized [4,4] tree, whose chunk rows each take
	// the best-first walk, pruned at Probes 1 and expanding every node at 16.
	t.Run("quantized-hierarchy", func(t *testing.T) {
		vecs, _ := clusteredVectors(85, 600, 16, 4)
		ix, err := Build(vecs, Options{Hierarchy: []int{4, 4}, Epochs: 10, Hidden: []int{8}, Seed: 86,
			Quantize: Quantization{Enabled: true, Subspaces: 4, K: 32}})
		if err != nil {
			t.Fatal(err)
		}
		for _, probes := range []int{1, 16} {
			run(t, ix, vecs[:24], SearchOptions{Probes: probes})
		}
	})
}
