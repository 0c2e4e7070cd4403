package usp

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
)

// searchIDs returns the result ids of a fresh search.
func searchIDs(t testing.TB, ix *Index, q []float32, k int, opt SearchOptions) []int {
	t.Helper()
	res, err := ix.Search(q, k, opt)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(res))
	for i, r := range res {
		ids[i] = r.ID
	}
	return ids
}

func TestDeleteHidesVector(t *testing.T) {
	ix, vecs := buildSmallIndex(t, 71, 2)
	// Row 3 is its own nearest neighbor; delete it and it must vanish from
	// results, candidates, and Len, while other vectors stay findable.
	pre := searchIDs(t, ix, vecs[3], 1, SearchOptions{Probes: 2})
	if len(pre) != 1 || pre[0] != 3 {
		t.Fatalf("pre-delete self query: %v", pre)
	}
	if err := ix.Delete(3); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 599 {
		t.Fatalf("Len after delete = %d", ix.Len())
	}
	for _, opt := range []SearchOptions{
		{Probes: 4},
		{Probes: 4, UnionEnsemble: true},
	} {
		for _, id := range searchIDs(t, ix, vecs[3], 10, opt) {
			if id == 3 {
				t.Fatalf("deleted id returned (%+v)", opt)
			}
		}
		cands, err := ix.CandidateSet(vecs[3], opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range cands {
			if id == 3 {
				t.Fatalf("deleted id in candidate set (%+v)", opt)
			}
		}
	}
	// Double delete and out-of-range ids are errors.
	if err := ix.Delete(3); err == nil {
		t.Fatal("double delete must fail")
	}
	if err := ix.Delete(-1); err == nil {
		t.Fatal("negative id must fail")
	}
	if err := ix.Delete(ix.live.Load().data.N); err == nil {
		t.Fatal("out-of-range id must fail")
	}
}

func TestDeleteAddedVector(t *testing.T) {
	ix, vecs := buildSmallIndex(t, 73, 1)
	nv := append([]float32(nil), vecs[7]...)
	nv[0] += 0.01
	id, err := ix.Add(nv)
	if err != nil {
		t.Fatal(err)
	}
	got := searchIDs(t, ix, nv, 1, SearchOptions{Probes: 2})
	if len(got) != 1 || got[0] != id {
		t.Fatalf("added vector not found: %v", got)
	}
	if err := ix.Delete(id); err != nil {
		t.Fatal(err)
	}
	for _, r := range searchIDs(t, ix, nv, 5, SearchOptions{Probes: 4}) {
		if r == id {
			t.Fatal("deleted spill id still served")
		}
	}
}

// TestCompactionPreservesResults is the core compaction invariant: folding
// spill lists and tombstones into fresh CSR tables must not change a single
// query result, and afterwards the pending counters are clean.
func TestCompactionPreservesResults(t *testing.T) {
	for _, hier := range []bool{false, true} {
		t.Run(fmt.Sprintf("hier=%v", hier), func(t *testing.T) {
			vecs, _ := clusteredVectors(79, 600, 8, 4)
			opts := Options{Bins: 4, Ensemble: 2, Epochs: 25, Hidden: []int{16}, Seed: 80, CompactAfter: -1}
			if hier {
				opts = Options{Hierarchy: []int{2, 2}, Epochs: 15, Hidden: []int{8}, Seed: 80, CompactAfter: -1}
			}
			ix, err := Build(vecs, opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(81))
			// Churn: adds (spill) and deletes (tombstones), interleaved.
			for i := 0; i < 120; i++ {
				nv := append([]float32(nil), vecs[rng.Intn(len(vecs))]...)
				nv[0] += float32(rng.NormFloat64()) * 0.02
				if _, err := ix.Add(nv); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 80; i++ {
				if err := ix.Delete(rng.Intn(600 + 120)); err != nil {
					i-- // collision with an earlier delete; pick again
				}
			}
			lc := ix.Lifecycle()
			if lc.PendingInserts != 120 || lc.Tombstones != 80 {
				t.Fatalf("pre-compaction lifecycle %+v", lc)
			}

			queries := vecs[:60]
			type snap struct{ ids []int }
			before := make([]snap, len(queries))
			for qi, q := range queries {
				before[qi] = snap{ids: searchIDs(t, ix, q, 10, SearchOptions{Probes: 2})}
			}
			ix.Compact()
			lc = ix.Lifecycle()
			if lc.PendingInserts != 0 || lc.Tombstones != 0 || lc.Dead != 80 {
				t.Fatalf("post-compaction lifecycle %+v", lc)
			}
			if ix.Len() != 600+120-80 {
				t.Fatalf("Len after compaction = %d", ix.Len())
			}
			for qi, q := range queries {
				after := searchIDs(t, ix, q, 10, SearchOptions{Probes: 2})
				if len(after) != len(before[qi].ids) {
					t.Fatalf("query %d: %d results after compaction, %d before", qi, len(after), len(before[qi].ids))
				}
				for i := range after {
					if after[i] != before[qi].ids[i] {
						t.Fatalf("query %d result %d changed: %d → %d", qi, i, before[qi].ids[i], after[i])
					}
				}
			}
			// Compaction with nothing pending is a published no-op.
			seq := ix.Lifecycle().Epoch
			ix.Compact()
			if ix.Lifecycle().Epoch != seq {
				t.Fatal("empty compaction should not publish")
			}
		})
	}
}

// TestEpochSnapshotIsolation pins the lifecycle's isolation guarantee: a
// query that resolved an epoch before a delete still sees the old state,
// because epochs are immutable.
func TestEpochSnapshotIsolation(t *testing.T) {
	ix, vecs := buildSmallIndex(t, 83, 1)
	old := ix.live.Load()
	if err := ix.Delete(3); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Add(vecs[3]); err != nil {
		t.Fatal(err)
	}
	// The historical epoch still contains id 3 and not the new row.
	if old.tombs.Has(3) {
		t.Fatal("old epoch saw the delete")
	}
	if old.data.N != 600 {
		t.Fatalf("old epoch saw the append: N=%d", old.data.N)
	}
	cur := ix.live.Load()
	if !cur.tombs.Has(3) || cur.data.N != 601 {
		t.Fatalf("new epoch missing mutations: tombs=%v N=%d", cur.tombs.Has(3), cur.data.N)
	}
}

// TestAutoCompaction checks the background compactor fires once the
// pending-mutation threshold is crossed and folds the state in.
func TestAutoCompaction(t *testing.T) {
	vecs, _ := clusteredVectors(89, 500, 8, 4)
	ix, err := Build(vecs, Options{
		Bins: 4, Epochs: 20, Hidden: []int{16}, Seed: 90, CompactAfter: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		nv := append([]float32(nil), vecs[i]...)
		nv[0] += 0.01
		if _, err := ix.Add(nv); err != nil {
			t.Fatal(err)
		}
	}
	// The trigger is asynchronous; Compact() blocks behind any in-flight
	// cycle, so after it returns everything pending at its start is folded.
	ix.Compact()
	lc := ix.Lifecycle()
	if lc.PendingInserts != 0 {
		t.Fatalf("pending inserts after compaction: %+v", lc)
	}
	if ix.Len() != 564 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

// TestConcurrentLifecycle is the -race acceptance test: readers hammer
// Search/SearchBatch/CandidateSet lock-free while writers stream Adds and
// Deletes and compactions run both automatically (small CompactAfter) and
// explicitly. Results must stay internally consistent throughout, and the
// final state must reconcile exactly.
func TestConcurrentLifecycle(t *testing.T) {
	vecs, _ := clusteredVectors(97, 600, 8, 4)
	ix, err := Build(vecs, Options{
		Bins: 4, Ensemble: 2, Epochs: 25, Hidden: []int{16}, Seed: 98, CompactAfter: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		readers    = 4
		queriesPer = 120
		adds       = 240
		deletes    = 150
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers+3)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := ix.NewSearcher()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for i := 0; i < queriesPer; i++ {
				q := vecs[rng.Intn(len(vecs))]
				switch i % 3 {
				case 0:
					res, err := s.Search(q, 5, SearchOptions{Probes: 2})
					if err != nil {
						errs <- err
						return
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
	go func() { // writer: adds
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

	deleted := make(map[int]bool)
	wg.Add(1)
	go func() { // writer: deletes over the initial id range
		defer wg.Done()
		rng := rand.New(rand.NewSource(1001))
		for len(deleted) < deletes {
			id := rng.Intn(600)
			if deleted[id] {
				continue
			}
			if err := ix.Delete(id); err != nil {
				errs <- err
				return
			}
			deleted[id] = true
		}
	}()

	wg.Add(1)
	go func() { // explicit compactions racing the automatic ones
		defer wg.Done()
		for i := 0; i < 5; i++ {
			ix.Compact()
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got, want := ix.Len(), 600+adds-deletes; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	// Quiesced: no deleted id may be served, every surviving original and a
	// spot-check of late adds must be reachable with enough probes.
	ix.Compact()
	s := ix.NewSearcher()
	for id := range deleted {
		for _, r := range searchIDs(t, ix, vecs[id], 10, SearchOptions{Probes: 4}) {
			if deleted[r] {
				t.Fatalf("deleted id %d served after quiesce", r)
			}
		}
	}
	hits := 0
	for id := 0; id < 600; id++ {
		if deleted[id] {
			continue
		}
		res, err := s.Search(vecs[id], 1, SearchOptions{Probes: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 1 && res[0].ID == id && res[0].Distance == 0 {
			hits++
		}
	}
	if hits != 600-deletes {
		t.Fatalf("only %d/%d survivors self-findable", hits, 600-deletes)
	}
}

// TestLockFreeReadsUnderWriterStall would deadlock (and fails fast via
// timeout) if queries ever took the writer lock: a goroutine holds wmu
// while reads proceed.
func TestLockFreeReadsUnderWriterStall(t *testing.T) {
	ix, vecs := buildSmallIndex(t, 101, 1)
	ix.wmu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, err := ix.Search(vecs[i], 5, SearchOptions{Probes: 2}); err != nil {
				t.Error(err)
				return
			}
			if _, err := ix.CandidateSet(vecs[i], SearchOptions{Probes: 1}); err != nil {
				t.Error(err)
				return
			}
			_ = ix.Len()
			_ = ix.Lifecycle()
		}
	}()
	<-done
	ix.wmu.Unlock()
}

// TestOptionsWithDefaultsPreservesExplicitZeros is the regression test for
// the zero-value clobbering bug: Eta: Float(0) and Dropout: Float(0) must
// survive default resolution, while nil still selects the documented
// defaults.
func TestOptionsWithDefaultsPreservesExplicitZeros(t *testing.T) {
	d := Options{}.withDefaults()
	if *d.Eta != 10 {
		t.Fatalf("default Eta = %v, want 10", *d.Eta)
	}
	if *d.Dropout != 0.1 {
		t.Fatalf("default Dropout = %v, want 0.1 (MLP default)", *d.Dropout)
	}
	if d.CompactAfter != 1024 {
		t.Fatalf("lifecycle defaults wrong: %+v", d)
	}

	z := Options{Eta: Float(0), Dropout: Float(0)}.withDefaults()
	if *z.Eta != 0 {
		t.Fatalf("explicit Eta=0 rewritten to %v", *z.Eta)
	}
	if *z.Dropout != 0 {
		t.Fatalf("explicit Dropout=0 rewritten to %v", *z.Dropout)
	}

	lg := Options{Logistic: true}.withDefaults()
	if *lg.Dropout != 0 {
		t.Fatalf("logistic Dropout = %v, want 0 (no hidden layers)", *lg.Dropout)
	}
	if neg := (Options{CompactAfter: -1}).withDefaults(); neg.CompactAfter != -1 {
		t.Fatalf("CompactAfter=-1 rewritten to %d", neg.CompactAfter)
	}

	// An explicitly zeroed balance term must actually reach training: the
	// build succeeds and the config carries η = 0.
	if cfg := z.coreConfig(); cfg.Eta != 0 || cfg.Dropout != 0 {
		t.Fatalf("coreConfig lost explicit zeros: %+v", cfg)
	}
}

// TestHeldEpochNeverSeesLaterInserts pins the invariant the in-place bin
// appends rest on: an epoch's tables are frozen at their lengths, so a
// reader holding it gathers the same candidates however many inserts land in
// the same bins afterwards — through compactions that repack them, racing
// the inserts, and the appends that follow. The gathers race the writers,
// for -race; at the end every row must sit in exactly one bin per member,
// so no insert that raced a compaction was lost.
func TestHeldEpochNeverSeesLaterInserts(t *testing.T) {
	vecs, _ := clusteredVectors(151, 400, 8, 4)
	ix, err := Build(vecs, Options{Bins: 4, Ensemble: 2, Epochs: 10, Hidden: []int{8}, Seed: 152, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Some inserts pending first, so the held tables already carry grown bins.
	for i := 0; i < 30; i++ {
		if _, err := ix.Add(vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	held := ix.live.Load()
	queries := vecs[:50]
	modes := []core.ProbeMode{core.BestConfidence, core.UnionProbe}
	gatherAll := func(s *Searcher) [][]int32 {
		var out [][]int32
		for _, mode := range modes {
			for _, q := range queries {
				s.route(held, [][]float32{q}, mode)
				s.gather(held, 0, 2, mode)
				out = append(out, append([]int32(nil), s.cands...))
			}
		}
		return out
	}
	want := gatherAll(ix.NewSearcher())

	var wg sync.WaitGroup
	adding := make(chan struct{})
	wg.Add(2)
	go func() { // writer: inserts near the queries, so into the bins they probe
		defer wg.Done()
		defer close(adding)
		rng := rand.New(rand.NewSource(153))
		add := func(n int) {
			for i := 0; i < n; i++ {
				nv := append([]float32(nil), queries[rng.Intn(len(queries))]...)
				nv[0] += float32(rng.NormFloat64()) * 0.01
				if _, err := ix.Add(nv); err != nil {
					t.Error(err)
					return
				}
			}
		}
		add(2000)
		ix.Compact()
		add(500)
	}()
	go func() { // compactions racing the inserts
		defer wg.Done()
		for {
			select {
			case <-adding:
				return
			default:
				ix.Compact()
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	s := ix.NewSearcher()
	for finished := false; !finished; { // one more round after the writes end
		select {
		case <-done:
			finished = true
		default:
		}
		for i, got := range gatherAll(s) {
			if !slices.Equal(got, want[i]) {
				<-done // the writers report to t; let them finish first
				t.Fatalf("gather %d at the held epoch changed: %d ids, held %d", i, len(got), len(want[i]))
			}
		}
	}
	ep := ix.live.Load()
	for m, p := range ep.router.Parts {
		seen := make([]int, ep.data.N)
		for _, ids := range p.Bins {
			for _, id := range ids {
				seen[id]++
			}
		}
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("member %d: row %d of %d is in %d bins", m, id, ep.data.N, c)
			}
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestAddAllocations pins what a steady-state Add on a 2-member ensemble
// allocates: the epoch and its dataset view, and Ensemble.With's ensemble, its
// member array, its partitioners and one bin-header array shared by both
// members. Growth of the rows and of the appended-to bins is amortized below
// one allocation per Add.
func TestAddAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("Add borrows a pooled Searcher, and -race makes sync.Pool drop items")
	}
	vecs, _ := clusteredVectors(161, 400, 8, 4)
	ix, err := Build(vecs, Options{Bins: 4, Ensemble: 2, Epochs: 5, Hidden: []int{8}, Seed: 162, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ { // every bin past its first, reallocating append
		if _, err := ix.Add(vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := ix.Add(vecs[i%len(vecs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 6 {
		t.Fatalf("Index.Add: %v allocs, want 6", allocs)
	}
}
