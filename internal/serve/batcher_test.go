package serve

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	usp "repro"
)

// TestMicrobatchedSearchBitIdentical pins the server-side half of the
// bit-equality criterion: concurrent /search requests flowing through the
// micro-batch scheduler return exactly what a direct single-query search
// returns — same ids, same float32 distance bits, same scanned counts.
func TestMicrobatchedSearchBitIdentical(t *testing.T) {
	corpus := testCorpus(t, 11, 400, 8)
	ix := testIndex(t, corpus)
	s := New(ix, Config{BatchWindow: 200 * time.Microsecond, BatchMax: 16})
	defer s.Close()

	queries := corpus.Rows()[:64]
	// Reference answers through the always-direct path.
	ref := New(ix, Config{})
	want := make([][]usp.Result, len(queries))
	wantScanned := make([]int, len(queries))
	for i, q := range queries {
		res, scanned, err := ref.Search(q, 5, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[i], wantScanned[i] = res, scanned
	}

	// Phase 1: hammer the public policy entry point (fast path + scheduler,
	// whatever interleaving the scheduler picks) — answers must match the
	// direct path bit for bit either way.
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	check := func(i int, res []usp.Result, scanned int) error {
		if scanned != wantScanned[i] {
			return fmt.Errorf("query %d: scanned %d, want %d", i, scanned, wantScanned[i])
		}
		if len(res) != len(want[i]) {
			return fmt.Errorf("query %d: %d results, want %d", i, len(res), len(want[i]))
		}
		for j := range res {
			if res[j] != want[i][j] {
				return fmt.Errorf("query %d result %d: %+v, want %+v (must be bit-identical)",
					i, j, res[j], want[i][j])
			}
		}
		return nil
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 30; round++ {
				i := (c*31 + round*7) % len(queries)
				res, scanned, err := s.Search(queries[i], 5, 2, 0)
				if err == nil {
					err = check(i, res, scanned)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Phase 2: force aggregation by submitting straight into the admission
	// queue from many goroutines (on one CPU the handler fast path can
	// otherwise serialize everything), mixing two k values so the collector
	// must split the drained batch into parameter groups. Every answer must
	// still match the direct path exactly.
	errs2 := make(chan error, 32)
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := c % len(queries)
			k := 5
			if c%3 == 0 {
				k = 3
			}
			out, ok := s.batch.submit(queries[i], k, 2, 0)
			if !ok {
				errs2 <- fmt.Errorf("submit %d not admitted", c)
				return
			}
			if out.err != nil {
				errs2 <- out.err
				return
			}
			if k == 5 {
				if err := check(i, out.res, out.scanned); err != nil {
					errs2 <- err
				}
				return
			}
			res, scanned, err := ref.Search(queries[i], k, 2, 0)
			if err != nil {
				errs2 <- err
				return
			}
			if scanned != out.scanned || len(res) != len(out.res) {
				errs2 <- fmt.Errorf("k=3 query %d: scanned/len mismatch", i)
				return
			}
			for j := range res {
				if res[j] != out.res[j] {
					errs2 <- fmt.Errorf("k=3 query %d result %d: %+v, want %+v", i, j, out.res[j], res[j])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs2)
	for err := range errs2 {
		t.Fatal(err)
	}

	// The submit storm must actually have aggregated: at least one flush
	// held >1 request, visible as the batch-size histogram's sum exceeding
	// its flush count.
	h := s.reg.Histogram("usp_batch_size", "", "Requests per micro-batch scheduler flush.", 1)
	if h.Count() == 0 {
		t.Fatal("scheduler never flushed a batch")
	}
	if h.Sum() <= h.Count() {
		t.Fatalf("no multi-request batch formed (flushes=%d, requests=%d)", h.Count(), h.Sum())
	}
}

// TestBatcherQueueFullFallsBackDirect pins the overload contract: a full
// admission queue degrades to direct execution, never to an error.
func TestBatcherQueueFullFallsBackDirect(t *testing.T) {
	corpus := testCorpus(t, 13, 300, 8)
	ix := testIndex(t, corpus)
	// BatchMax 1 leaves a 4-request queue for 16 clients.
	s := New(ix, Config{BatchWindow: time.Millisecond, BatchMax: 1})
	defer s.Close()
	queries := corpus.Rows()[:32]
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				if _, _, err := s.Search(queries[(c+r)%len(queries)], 3, 1, 0); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestBatcherShutdownNoGoroutineLeak asserts the scheduler drains cleanly:
// after the HTTP server stops and Close returns, the collector goroutine is
// gone and every admitted request was answered.
func TestBatcherShutdownNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	corpus := testCorpus(t, 17, 300, 8)
	ix := testIndex(t, corpus)
	s := New(ix, Config{BatchWindow: 300 * time.Microsecond, BatchMax: 8})
	ts := httptest.NewServer(s.Mux())

	queries := corpus.Rows()[:16]
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				resp := post(t, ts, "/search", SearchRequest{Vector: queries[(c+r)%len(queries)], K: 3, Probes: 1})
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()
	ts.Close()
	s.Close()
	s.Close() // idempotent

	// A submit after Close must fall back, not hang or panic.
	if _, _, err := s.Search(queries[0], 3, 1, 0); err != nil {
		t.Fatal(err)
	}

	// Goroutine count returns to baseline (allow the runtime a moment to
	// retire worker goroutines from the HTTP test server).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after drain: %d > %d\n%s",
				runtime.NumGoroutine(), before, truncateStacks(string(buf[:n])))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func truncateStacks(s string) string {
	if len(s) > 4000 {
		return s[:4000] + "\n... (truncated)"
	}
	return s
}

// TestBatchMetricsExposed asserts the scheduler's series reach /metrics in
// Prometheus exposition form.
func TestBatchMetricsExposed(t *testing.T) {
	corpus := testCorpus(t, 19, 300, 8)
	ix := testIndex(t, corpus)
	s := New(ix, Config{BatchWindow: 200 * time.Microsecond, BatchMax: 8})
	defer s.Close()
	ts := httptest.NewServer(s.Mux())
	defer ts.Close()

	queries := corpus.Rows()[:8]
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < 15; r++ {
				resp := post(t, ts, "/search", SearchRequest{Vector: queries[(c+r)%len(queries)], K: 3, Probes: 1})
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()

	body := readAll(t, mustGet(t, ts, "/metrics"))
	for _, want := range []string{"usp_batch_size", `usp_batch_flush_total{reason="window"}`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body[:min(len(body), 2000)])
		}
	}
}
