package usp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/knn"
	"repro/internal/vecmath"
)

// within reports whether a and b agree to the given relative tolerance
// (plus a small absolute floor for near-zero distances).
func within(a, b, rel float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	mag := b
	if mag < 0 {
		mag = -mag
	}
	return diff <= rel*mag+1e-4
}

// buildSmallIndex trains a compact ensemble index for engine tests.
func buildSmallIndex(t testing.TB, seed int64, ensemble int) (*Index, [][]float32) {
	t.Helper()
	vecs, _ := clusteredVectors(seed, 600, 8, 4)
	ix, err := Build(vecs, Options{
		Bins: 4, Ensemble: ensemble, Epochs: 30, Hidden: []int{16}, Seed: seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix, vecs
}

// TestSearcherMatchesLegacyPipeline replays the seed implementation's query
// path — CandidateSet followed by an exhaustive SquaredL2 scan over the
// subset — and requires the zero-allocation engine to return the same
// neighbor ids in the same order, with distances matching to float32
// round-off (the fused kernel reassociates the arithmetic).
func TestSearcherMatchesLegacyPipeline(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  SearchOptions
	}{
		{"best1", SearchOptions{Probes: 1}},
		{"best2", SearchOptions{Probes: 2}},
		{"union2", SearchOptions{Probes: 2, UnionEnsemble: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, vecs := buildSmallIndex(t, 41, 2)
			s := ix.NewSearcher()
			for qi := 0; qi < 50; qi++ {
				q := vecs[qi]
				cands, err := ix.CandidateSet(q, tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				want := knn.SearchSubset(ix.live.Load().data, cands, q, 10)
				got, err := s.Search(q, 10, tc.opt)
				if err != nil {
					t.Fatal(err)
				}
				if s.Scanned() != len(cands) {
					t.Fatalf("q%d: scanned %d, want %d", qi, s.Scanned(), len(cands))
				}
				if len(got) != len(want) {
					t.Fatalf("q%d: %d results, want %d", qi, len(got), len(want))
				}
				for i := range want {
					if got[i].ID != want[i].Index {
						// The fused kernel reassociates the arithmetic, so
						// candidates whose true distances agree to float32
						// round-off may swap ranks. Any other id change is a
						// correctness bug.
						dGot := vecmath.SquaredL2(q, ix.live.Load().data.Row(got[i].ID))
						if !within(float64(dGot), float64(want[i].Dist), 1e-3) {
							t.Fatalf("q%d result[%d]: id %d (exact dist %v), want id %d (dist %v)",
								qi, i, got[i].ID, dGot, want[i].Index, want[i].Dist)
						}
					}
					if !within(float64(got[i].Distance), float64(want[i].Dist), 1e-3) {
						t.Fatalf("q%d result[%d]: dist %v, want %v", qi, i, got[i].Distance, want[i].Dist)
					}
				}
			}
		})
	}
}

func TestSearcherMatchesLegacyPipelineHierarchy(t *testing.T) {
	vecs, _ := clusteredVectors(43, 600, 8, 4)
	ix, err := Build(vecs, Options{Hierarchy: []int{2, 2}, Epochs: 15, Hidden: []int{8}, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	s := ix.NewSearcher()
	for qi := 0; qi < 30; qi++ {
		q := vecs[qi]
		cands, err := ix.CandidateSet(q, SearchOptions{Probes: 2})
		if err != nil {
			t.Fatal(err)
		}
		want := knn.SearchSubset(ix.live.Load().data, cands, q, 5)
		got, err := s.Search(q, 5, SearchOptions{Probes: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("q%d: %d results, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].Index {
				dGot := vecmath.SquaredL2(q, ix.live.Load().data.Row(got[i].ID))
				if !within(float64(dGot), float64(want[i].Dist), 1e-3) {
					t.Fatalf("q%d result[%d]: id %d, want %d", qi, i, got[i].ID, want[i].Index)
				}
			}
		}
	}
}

// TestSearcherAllocations asserts the acceptance criterion: at most 2
// allocations per steady-state query through Searcher.Search (the engine
// itself performs none; the returned result slice is one), and exactly 0
// through SearchInto with a recycled destination.
func TestSearcherAllocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  SearchOptions
	}{
		{"best", SearchOptions{Probes: 2}},
		{"union", SearchOptions{Probes: 2, UnionEnsemble: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, vecs := buildSmallIndex(t, 47, 2)
			s := ix.NewSearcher()
			for i := 0; i < 20; i++ { // warm every scratch buffer
				if _, err := s.Search(vecs[i], 10, tc.opt); err != nil {
					t.Fatal(err)
				}
			}
			q := vecs[3]
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := s.Search(q, 10, tc.opt); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 2 {
				t.Fatalf("Searcher.Search: %v allocs per query, want ≤ 2", allocs)
			}
			dst := make([]Result, 0, 10)
			allocs = testing.AllocsPerRun(200, func() {
				var err error
				dst, err = s.SearchInto(dst[:0], q, 10, tc.opt)
				if err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("Searcher.SearchInto: %v allocs per query, want 0", allocs)
			}
		})
	}
}

func TestSearcherAllocationsHierarchy(t *testing.T) {
	vecs, _ := clusteredVectors(49, 500, 8, 4)
	ix, err := Build(vecs, Options{Hierarchy: []int{2, 2}, Epochs: 10, Hidden: []int{8}, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	s := ix.NewSearcher()
	dst := make([]Result, 0, 10)
	for i := 0; i < 20; i++ {
		dst, err = s.SearchInto(dst[:0], vecs[i], 10, SearchOptions{Probes: 2})
		if err != nil {
			t.Fatal(err)
		}
	}
	q := vecs[3]
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		dst, err = s.SearchInto(dst[:0], q, 10, SearchOptions{Probes: 2})
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hierarchy SearchInto: %v allocs per query, want 0", allocs)
	}
}

// TestSearchBatchAgreesWithSearch requires position-aligned, id-exact
// agreement between the parallel batch entry point and looped single-query
// calls.
func TestSearchBatchAgreesWithSearch(t *testing.T) {
	ix, vecs := buildSmallIndex(t, 53, 2)
	queries := vecs[:64]
	for _, opt := range []SearchOptions{
		{Probes: 1},
		{Probes: 2, UnionEnsemble: true},
	} {
		batch, err := ix.SearchBatch(queries, 10, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(queries) {
			t.Fatalf("%d batch results, want %d", len(batch), len(queries))
		}
		for i, q := range queries {
			single, err := ix.Search(q, 10, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch[i]) != len(single) {
				t.Fatalf("query %d: batch %d results, single %d", i, len(batch[i]), len(single))
			}
			for j := range single {
				if batch[i][j] != single[j] {
					t.Fatalf("query %d result %d: batch %+v, single %+v", i, j, batch[i][j], single[j])
				}
			}
		}
	}
}

func TestSearchBatchValidation(t *testing.T) {
	ix, vecs := buildSmallIndex(t, 59, 1)
	if _, err := ix.SearchBatch(vecs[:4], 0, SearchOptions{}); err == nil {
		t.Fatal("k=0 must fail")
	}
	bad := [][]float32{vecs[0], make([]float32, 3)}
	if _, err := ix.SearchBatch(bad, 5, SearchOptions{}); err == nil {
		t.Fatal("dim mismatch must fail")
	}
	empty, err := ix.SearchBatch(nil, 5, SearchOptions{})
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v, %d results", err, len(empty))
	}
}

// TestNonFiniteVectorsRejected: every entry point that takes a vector
// refuses NaN and ±Inf with ErrInvalid, on the float and the quantized
// scan alike, and a refused Add leaves the index as it was. Before the
// check a NaN query filled the ADC table with NaN and the top-k admitted
// every candidate in arrival order.
// TestUnboundedKIsClampedToRowCount: k and RerankK reach the engine from the
// wire with no upper bound, and the engine sizes its result slice, top-k
// selectors and batch arena from them. A top-k over at most N rows cannot
// hold more than N, so every entry point must answer k = 1<<40 (and
// RerankK = 1<<40) exactly like k = N — float and quantized — instead of
// asking the runtime for terabytes.
func TestUnboundedKIsClampedToRowCount(t *testing.T) {
	const huge = 1 << 40
	plain, quantized, vecs := buildQuantizedPair(t, 141, 600, 16, Quantization{Subspaces: 4, K: 32})
	queries := vecs[:6]
	for name, ix := range map[string]*Index{"float": plain, "quantized": quantized} {
		n := ix.Lifecycle().Rows
		for _, rerank := range []int{0, -1, huge} {
			opt := SearchOptions{Probes: 2, RerankK: rerank}
			atN := SearchOptions{Probes: 2, RerankK: min(rerank, n)}
			batch, err := ix.SearchBatch(queries, huge, opt)
			if err != nil {
				t.Fatal(err)
			}
			s := ix.NewSearcher()
			for qi, q := range queries {
				want, err := ix.Search(q, n, atN)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 || len(want) > n {
					t.Fatalf("%s rerank=%d q%d: k=N returned %d results from %d rows", name, rerank, qi, len(want), n)
				}
				search, err := ix.Search(q, huge, opt)
				if err != nil {
					t.Fatal(err)
				}
				into, err := s.SearchInto(make([]Result, 0, 8), q, huge, opt)
				if err != nil {
					t.Fatal(err)
				}
				for form, got := range map[string][]Result{"Search": search, "SearchInto": into, "SearchBatch": batch[qi]} {
					if !slices.Equal(got, want) {
						t.Fatalf("%s rerank=%d q%d: %s(k=1<<40) differs from k=%d (%d vs %d results)",
							name, rerank, qi, form, n, len(got), len(want))
					}
				}
			}
		}
	}
}

func TestNonFiniteVectorsRejected(t *testing.T) {
	plain, quantized, vecs := buildQuantizedPair(t, 57, 600, 16, Quantization{Subspaces: 4, K: 32})
	for name, bad := range map[string]float32{
		"NaN": float32(math.NaN()), "+Inf": float32(math.Inf(1)), "-Inf": float32(math.Inf(-1)),
	} {
		q := append([]float32(nil), vecs[5]...)
		q[len(q)-1] = bad
		batch := [][]float32{vecs[0], q, vecs[1]}
		for ixName, ix := range map[string]*Index{"float": plain, "quantized": quantized} {
			rows := ix.Len()
			s := ix.NewSearcher()
			for entry, call := range map[string]func() error{
				"Add":          func() error { _, err := ix.Add(q); return err },
				"Search":       func() error { _, err := ix.Search(q, 5, SearchOptions{}); return err },
				"SearchInto":   func() error { _, err := s.SearchInto(nil, q, 5, SearchOptions{Probes: 2}); return err },
				"SearchBatch":  func() error { _, err := ix.SearchBatch(batch, 5, SearchOptions{}); return err },
				"CandidateSet": func() error { _, err := ix.CandidateSet(q, SearchOptions{}); return err },
			} {
				if err := call(); !errors.Is(err, ErrInvalid) {
					t.Errorf("%s index, %s with a %s component: error %v, want ErrInvalid", ixName, entry, name, err)
				}
			}
			if ix.Len() != rows {
				t.Fatalf("%s index: a refused Add changed the row count %d -> %d", ixName, rows, ix.Len())
			}
		}
		withBad := append(append([][]float32(nil), vecs[:8]...), q)
		if _, err := Build(withBad, Options{Bins: 2, Epochs: 1}); !errors.Is(err, ErrInvalid) {
			t.Errorf("Build with a %s component: error %v, want ErrInvalid", name, err)
		}
	}
	if err := ValidateVector(vecs[0]); err != nil {
		t.Fatalf("finite vector refused: %v", err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = ValidateVector(vecs[0]) }); allocs != 0 {
		t.Fatalf("ValidateVector allocates %v per call on a finite vector", allocs)
	}
}

// TestConcurrentSearchAndAdd is the -race regression test for the
// Search-vs-Add data race the seed had: readers hammer Search, SearchBatch,
// and CandidateSet while a writer streams Adds into the same Index. Run
// under -race this fails loudly without the RWMutex; with it, every query
// must also return internally consistent results.
func TestConcurrentSearchAndAdd(t *testing.T) {
	ix, vecs := buildSmallIndex(t, 61, 2)
	const (
		readers    = 4
		queriesPer = 150
		adds       = 300
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := ix.NewSearcher()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < queriesPer; i++ {
				q := vecs[rng.Intn(len(vecs))]
				switch i % 3 {
				case 0:
					res, err := s.Search(q, 5, SearchOptions{Probes: 2})
					if err != nil {
						errs <- err
						return
					}
					if len(res) == 0 {
						continue
					}
					for j := 1; j < len(res); j++ {
						if res[j].Distance < res[j-1].Distance {
							errs <- fmt.Errorf("reader %d: unsorted results", r)
							return
						}
					}
				case 1:
					if _, err := ix.SearchBatch(vecs[:8], 3, SearchOptions{Probes: 1}); err != nil {
						errs <- err
						return
					}
				default:
					if _, err := ix.CandidateSet(q, SearchOptions{Probes: 1, UnionEnsemble: true}); err != nil {
						errs <- err
						return
					}
				}
			}
		}(r)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(999))
		for i := 0; i < adds; i++ {
			base := vecs[rng.Intn(len(vecs))]
			nv := make([]float32, len(base))
			copy(nv, base)
			nv[0] += float32(rng.NormFloat64()) * 0.01
			if _, err := ix.Add(nv); err != nil {
				errs <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ix.Len() != 600+adds {
		t.Fatalf("Len = %d, want %d", ix.Len(), 600+adds)
	}
	// Every inserted point must be findable afterwards.
	res, err := ix.Search(vecs[0], 5, SearchOptions{Probes: 4})
	if err != nil || len(res) == 0 {
		t.Fatalf("post-churn search: %v, %d results", err, len(res))
	}
}

// TestOverflowingVectorsRejected: a finite vector whose squared norm
// overflows float32 used to be admitted. An Add of a row of 1e20s
// succeeded, and a search for that very row then returned other ids at +Inf
// instead of the row itself at 0; a finite query of 3e37s got NaN
// distances. ValidateVector refuses both now, on every entry point, while a
// vector just inside its bound is still served with finite distances and
// found at distance 0.
func TestOverflowingVectorsRejected(t *testing.T) {
	plain, quantized, vecs := buildQuantizedPair(t, 61, 400, 8, Quantization{Subspaces: 4, K: 32})
	fill := func(x float32) []float32 {
		v := make([]float32, 8)
		for i := range v {
			v[i] = x
		}
		return v
	}
	for name, v := range map[string][]float32{"1e20s": fill(1e20), "3e37s": fill(3e37)} {
		for ixName, ix := range map[string]*Index{"float": plain, "quantized": quantized} {
			rows := ix.Len()
			s := ix.NewSearcher()
			for entry, call := range map[string]func() error{
				"Add":          func() error { _, err := ix.Add(v); return err },
				"Search":       func() error { _, err := ix.Search(v, 3, SearchOptions{}); return err },
				"SearchInto":   func() error { _, err := s.SearchInto(nil, v, 3, SearchOptions{Probes: 2}); return err },
				"SearchBatch":  func() error { _, err := ix.SearchBatch([][]float32{vecs[0], v}, 3, SearchOptions{}); return err },
				"CandidateSet": func() error { _, err := ix.CandidateSet(v, SearchOptions{}); return err },
			} {
				if err := call(); !errors.Is(err, ErrInvalid) {
					t.Errorf("%s index, %s of %s: error %v, want ErrInvalid", ixName, entry, name, err)
				}
			}
			if ix.Len() != rows {
				t.Fatalf("%s index: a refused Add changed the row count %d -> %d", ixName, rows, ix.Len())
			}
		}
		if _, err := Build(append(vecs[:8:8], v), Options{Bins: 2, Epochs: 1}); !errors.Is(err, ErrInvalid) {
			t.Errorf("Build with a row of %s: error %v, want ErrInvalid", name, err)
		}
	}

	// Just inside the bound: admitted, found at 0, every distance finite.
	edge := fill(float32(math.Sqrt(0.99 * maxSqNorm / 8)))
	id, err := plain.Add(edge)
	if err != nil {
		t.Fatalf("vector inside the bound refused: %v", err)
	}
	res, err := plain.Search(edge, 5, SearchOptions{Probes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].ID != id || res[0].Distance != 0 {
		t.Fatalf("self-search of the edge vector: %v, want id %d at 0 first", res, id)
	}
	for _, r := range res {
		if math.IsInf(float64(r.Distance), 0) || math.IsNaN(float64(r.Distance)) {
			t.Fatalf("edge vector search returned distance %v", r.Distance)
		}
	}
}
