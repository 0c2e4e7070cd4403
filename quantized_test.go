package usp

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/vecmath"
)

// buildQuantizedPair builds two indexes over the same vectors with the same
// seed: a float-only baseline and a quantized twin. Model training ignores
// the quantizer, so the two gather identical candidate sets and differ only
// in how they scan them.
func buildQuantizedPair(t testing.TB, seed int64, n, dim int, q Quantization) (*Index, *Index, [][]float32) {
	t.Helper()
	vecs, _ := clusteredVectors(seed, n, dim, 4)
	base := Options{Bins: 4, Epochs: 30, Hidden: []int{16}, Seed: seed + 1}
	plain, err := Build(vecs, base)
	if err != nil {
		t.Fatal(err)
	}
	base.Quantize = q
	base.Quantize.Enabled = true
	quantized, err := Build(vecs, base)
	if err != nil {
		t.Fatal(err)
	}
	return plain, quantized, vecs
}

// TestQuantizedFullRerankMatchesFloat: with RerankK at least the candidate
// count, phase 1 passes every candidate through and phase 2 re-scores all
// of them exactly — the quantized path must then reproduce the float-only
// scan (ids may swap only where true distances collide to float32 bits).
func TestQuantizedFullRerankMatchesFloat(t *testing.T) {
	plain, quantized, vecs := buildQuantizedPair(t, 61, 600, 16, Quantization{Subspaces: 4, K: 32})
	opt := SearchOptions{Probes: 2}
	qopt := opt
	qopt.RerankK = 1 << 20
	for qi := 0; qi < 50; qi++ {
		want, err := plain.Search(vecs[qi], 10, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := quantized.Search(vecs[qi], 10, qopt)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("q%d: %d results, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID && got[i].Distance != want[i].Distance {
				t.Fatalf("q%d result %d: %+v, want %+v", qi, i, got[i], want[i])
			}
		}
	}
}

// TestQuantizedRerankDepths: at practical re-rank depths the two-phase scan
// must return exact (re-scored) distances in sorted order and overlap the
// float-only top-k heavily.
func TestQuantizedRerankDepths(t *testing.T) {
	plain, quantized, vecs := buildQuantizedPair(t, 67, 600, 16, Quantization{Subspaces: 8, K: 64})
	opt := SearchOptions{Probes: 2}
	data := quantized.live.Load().data
	for _, tc := range []struct {
		rerankK int
		minOver float64
	}{
		// At depth k the ADC pass alone picks the survivors, so a few
		// borderline neighbors drop; 2×/4× depth recovers nearly all
		// (measured 0.76 / 0.97 / 1.00 — bars leave head-room).
		{10, 0.65}, {20, 0.90}, {40, 0.97},
	} {
		rerankK := tc.rerankK
		qopt := opt
		qopt.RerankK = rerankK
		var overlap, total float64
		for qi := 0; qi < 50; qi++ {
			q := vecs[qi]
			want, err := plain.Search(q, 10, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := quantized.Search(q, 10, qopt)
			if err != nil {
				t.Fatal(err)
			}
			wantIDs := make(map[int]bool, len(want))
			for _, r := range want {
				wantIDs[r.ID] = true
			}
			for i, r := range got {
				// The fused kernel reassociates ‖x‖²−2q·x+‖q‖², so "exact"
				// means float32 round-off, not bitwise.
				if !within(float64(r.Distance), float64(vecmath.SquaredL2(q, data.Row(r.ID))), 1e-4) {
					t.Fatalf("rerank %d q%d: distance %v is not the exact row distance", rerankK, qi, r.Distance)
				}
				if i > 0 && got[i].Distance < got[i-1].Distance {
					t.Fatalf("rerank %d q%d: results unsorted", rerankK, qi)
				}
				if wantIDs[r.ID] {
					overlap++
				}
			}
			total += float64(len(want))
		}
		if frac := overlap / total; frac < tc.minOver {
			t.Fatalf("rerank %d: only %.2f of float-only top-10 recovered, want ≥ %.2f", rerankK, frac, tc.minOver)
		}
	}
}

// TestQuantizedRecallAt10 pins the acceptance bar: at 8× compression
// (Subspaces = dim/2 byte codes vs 4·dim float bytes) the quantized path
// with default re-ranking must reach recall@10 ≥ 0.80 against exact ground
// truth when probing every bin.
func TestQuantizedRecallAt10(t *testing.T) {
	vecs, _ := clusteredVectors(71, 2000, 16, 8)
	ix, err := Build(vecs, Options{
		Bins: 4, Epochs: 30, Hidden: []int{16}, Seed: 72,
		Quantize: Quantization{Enabled: true, Subspaces: 8, K: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.FromRowsCopy(vecs)
	rng := rand.New(rand.NewSource(73))
	queries := dataset.New(50, 16)
	for i := 0; i < queries.N; i++ {
		copy(queries.Row(i), vecs[rng.Intn(len(vecs))])
		for j, v := range queries.Row(i) {
			queries.Row(i)[j] = v + float32(rng.NormFloat64())*0.05
		}
	}
	truth := knn.GroundTruth(ds, queries, 10)
	var sum float64
	for i := 0; i < queries.N; i++ {
		res, err := ix.Search(queries.Row(i), 10, SearchOptions{Probes: 4})
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int, len(res))
		for j, r := range res {
			ids[j] = r.ID
		}
		sum += knn.Recall(ids, truth[i])
	}
	if recall := sum / float64(queries.N); recall < 0.80 {
		t.Fatalf("recall@10 = %.3f, want ≥ 0.80 at 8× compression", recall)
	}
}

// TestSearcherADCAllocations: the quantized scan must preserve the engine's
// steady-state guarantee — SearchInto allocates nothing, on both the
// two-phase and the ADC-only paths.
func TestSearcherADCAllocations(t *testing.T) {
	_, ix, vecs := buildQuantizedPair(t, 79, 600, 16, Quantization{Subspaces: 8, K: 64})
	for _, tc := range []struct {
		name string
		opt  SearchOptions
	}{
		{"rerank", SearchOptions{Probes: 2}},
		{"adc-only", SearchOptions{Probes: 2, RerankK: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := ix.NewSearcher()
			for i := 0; i < 20; i++ { // warm every scratch buffer
				if _, err := s.Search(vecs[i], 10, tc.opt); err != nil {
					t.Fatal(err)
				}
			}
			q := vecs[3]
			dst := make([]Result, 0, 10)
			allocs := testing.AllocsPerRun(200, func() {
				var err error
				dst, err = s.SearchInto(dst[:0], q, 10, tc.opt)
				if err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("quantized SearchInto: %v allocs per query, want 0", allocs)
			}
		})
	}
}

// TestSearchBatchADCAllocations extends the gate to the batched quantized
// path: one staged chunk of SearchBatch — batched routing, batched table
// build, per-query block scan (its two block buffers must stay on the
// stack) and re-rank — allocates nothing beyond the result arena the
// caller pre-sized, with tombstones to filter and without. It drives the
// chunk body on its own Searcher, as TestBatchRoutingAllocations does,
// because the public call's pooled Searchers are dropped at random under
// the race detector.
func TestSearchBatchADCAllocations(t *testing.T) {
	_, ix, vecs := buildQuantizedPair(t, 79, 600, 16, Quantization{Subspaces: 8, K: 64})
	queries := vecs[:batchQuantChunk]
	const k = 10
	run := func(t *testing.T, opt SearchOptions) {
		s := ix.NewSearcher()
		ep := ix.live.Load()
		out := make([][]Result, len(queries))
		arena := make([]Result, 0, len(queries)*k)
		s.searchChunk(ep, queries, k, opt, out, arena, nil) // warm every scratch buffer
		allocs := testing.AllocsPerRun(50, func() {
			s.searchChunk(ep, queries, k, opt, out, arena[:0], nil)
		})
		if allocs != 0 {
			t.Fatalf("batched quantized chunk: %v allocs, want 0", allocs)
		}
	}
	t.Run("rerank", func(t *testing.T) { run(t, SearchOptions{Probes: 2}) })
	t.Run("adc-only", func(t *testing.T) { run(t, SearchOptions{Probes: 2, RerankK: -1}) })
	for id := 0; id < 200; id += 3 {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("tombstones", func(t *testing.T) { run(t, SearchOptions{Probes: 2}) })
}

// TestQuantizedDeleteHidesVector: tombstones must be honored by the ADC
// phase (they are filtered there, before re-ranking ever sees the id).
func TestQuantizedDeleteHidesVector(t *testing.T) {
	_, ix, vecs := buildQuantizedPair(t, 83, 600, 16, Quantization{Subspaces: 8, K: 64})
	dead := map[int]bool{}
	rng := rand.New(rand.NewSource(84))
	for len(dead) < 60 {
		id := rng.Intn(len(vecs))
		if !dead[id] {
			if err := ix.Delete(id); err != nil {
				t.Fatal(err)
			}
			dead[id] = true
		}
	}
	s := ix.NewSearcher()
	sawSkip := false
	for _, opt := range []SearchOptions{{Probes: 4}, {Probes: 4, RerankK: -1}} {
		for qi := 0; qi < 50; qi++ {
			res, err := s.Search(vecs[qi], 10, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res {
				if dead[r.ID] {
					t.Fatalf("opt %+v q%d: tombstoned id %d returned", opt, qi, r.ID)
				}
			}
			if s.Skipped() > 0 {
				sawSkip = true
			}
		}
	}
	if !sawSkip {
		t.Fatal("no query ever skipped a tombstone — filter untested")
	}
}

// TestDropFloatsTightMode: after DropFloats the index keeps serving
// (pure-ADC) queries from codes alone while Add and Save are refused.
func TestDropFloatsTightMode(t *testing.T) {
	plain, ix, vecs := buildQuantizedPair(t, 89, 600, 16, Quantization{Subspaces: 8, K: 256})
	if err := plain.DropFloats(); err == nil {
		t.Fatal("DropFloats on an unquantized index should fail")
	}
	if err := ix.DropFloats(); err != nil {
		t.Fatal(err)
	}
	if err := ix.DropFloats(); err != nil {
		t.Fatalf("second DropFloats should be a no-op, got %v", err)
	}
	if _, err := ix.Add(vecs[0]); err == nil {
		t.Fatal("Add should fail in memory-tight mode")
	}
	if err := ix.Save(&bytes.Buffer{}); err == nil {
		t.Fatal("Save should fail in memory-tight mode")
	}
	// Self-queries stay useful: the query's own code has near-zero ADC
	// distance, so it should surface in its own top-10 nearly always.
	hits := 0
	for qi := 0; qi < 100; qi++ {
		res, err := ix.Search(vecs[qi], 10, SearchOptions{Probes: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 10 {
			t.Fatalf("q%d: %d results", qi, len(res))
		}
		for _, r := range res {
			if r.ID == qi {
				hits++
				break
			}
		}
	}
	if hits < 90 {
		t.Fatalf("only %d/100 self-queries recovered their own id from codes", hits)
	}
	// MemoryTight in build options drops floats before Build returns.
	tight, err := Build(vecs, Options{
		Bins: 4, Epochs: 20, Hidden: []int{16}, Seed: 90,
		Quantize: Quantization{Enabled: true, Subspaces: 8, MemoryTight: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tight.Add(vecs[0]); err == nil {
		t.Fatal("Add should fail on a MemoryTight-built index")
	}
}

// TestQuantizedSnapshotRoundTrip: a quantized index (including post-build
// adds and tombstones) must round-trip through the snapshot format and
// serve bit-identical results on both the quantized and re-rank paths.
func TestQuantizedSnapshotRoundTrip(t *testing.T) {
	_, ix, vecs := buildQuantizedPair(t, 97, 600, 16, Quantization{Subspaces: 8, K: 64})
	churn(t, ix, vecs, 40, 25, 98)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.pq == nil || len(loaded.codes) != loaded.live.Load().data.N*loaded.pq.Subspaces {
		t.Fatal("loaded index lost its quantizer state")
	}
	requireIdentical(t, ix, loaded, vecs[:30], "quantized")
	for qi := 0; qi < 30; qi++ {
		a, err := ix.Search(vecs[qi], 10, SearchOptions{Probes: 2, RerankK: -1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Search(vecs[qi], 10, SearchOptions{Probes: 2, RerankK: -1})
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("adc q%d: %d vs %d results", qi, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("adc q%d result %d: %+v vs %+v", qi, i, a[i], b[i])
			}
		}
	}
}

// TestQuantSectionForwardCompat: a reader that does not know the quant
// section id must skip it and load a float-only index that still serves
// bit-identically to an unquantized build. Simulated by masking the quant
// section's id to an unassigned value in the section table.
func TestQuantSectionForwardCompat(t *testing.T) {
	plain, ix, vecs := buildQuantizedPair(t, 101, 600, 16, Quantization{Subspaces: 8, K: 64})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	count := int(binary.LittleEndian.Uint32(raw[12:16]))
	masked := false
	for i := 0; i < count; i++ {
		off := snapHeaderFixed + i*snapSectionEntry
		if binary.LittleEndian.Uint32(raw[off:off+4]) == secQuant {
			binary.LittleEndian.PutUint32(raw[off:off+4], 0x7fffffff)
			masked = true
		}
	}
	if !masked {
		t.Fatal("snapshot of a quantized index carries no quant section")
	}
	loaded, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.pq != nil {
		t.Fatal("masked quant section still decoded")
	}
	if loaded.opt.Quantize.Enabled {
		t.Fatal("loaded index claims quantization without codebooks")
	}
	// The quantizer never influences model training, so the masked load
	// must serve exactly like a float-only build of the same seed.
	requireIdentical(t, plain, loaded, vecs[:30], "masked")
}

// TestCompactionRetrainsQuantizer: once the index grows past RetrainGrowth,
// compaction must refresh the codebooks and re-encode every row, keeping
// codes in lockstep with the dataset.
func TestCompactionRetrainsQuantizer(t *testing.T) {
	_, ix, vecs := buildQuantizedPair(t, 103, 600, 16, Quantization{Subspaces: 8, K: 64, RetrainGrowth: 0.1})
	before := ix.pq
	rng := rand.New(rand.NewSource(104))
	for i := 0; i < 120; i++ { // 20% growth > 10% threshold
		nv := append([]float32(nil), vecs[rng.Intn(len(vecs))]...)
		nv[0] += float32(rng.NormFloat64()) * 0.05
		if _, err := ix.Add(nv); err != nil {
			t.Fatal(err)
		}
	}
	ix.Compact()
	if ix.pq == before {
		t.Fatal("compaction past the growth threshold did not retrain the codebooks")
	}
	n := ix.live.Load().data.N
	if ix.qTrainedN != n {
		t.Fatalf("qTrainedN = %d, want %d", ix.qTrainedN, n)
	}
	if len(ix.codes) != n*ix.pq.Subspaces {
		t.Fatalf("codes cover %d bytes, want %d", len(ix.codes), n*ix.pq.Subspaces)
	}
	// Every code must equal a fresh encoding under the new books — the
	// raced-row re-encode path must not leave stale codes behind.
	data := ix.live.Load().data
	fresh := make([]uint8, 0, ix.pq.Subspaces)
	for id := 0; id < n; id++ {
		fresh = ix.pq.AppendCode(fresh[:0], data.Row(id))
		if !bytes.Equal(fresh, ix.codes[id*ix.pq.Subspaces:(id+1)*ix.pq.Subspaces]) {
			t.Fatalf("row %d code is stale after retrain", id)
		}
	}
	// And a no-growth compaction keeps the books.
	after := ix.pq
	ix.Compact()
	if ix.pq != after {
		t.Fatal("no-growth compaction retrained anyway")
	}
}
