package usp

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/telemetry"
)

// buildTelemetryIndex trains a small index for telemetry-wiring tests.
func buildTelemetryIndex(t *testing.T) (*Index, *dataset.Labeled) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	corpus := dataset.GaussianMixture(dataset.GaussianMixtureConfig{
		N: 400, Dim: 16, Clusters: 8, ClusterStd: 0.5, CenterBox: 3,
	}, rng)
	ix, err := Build(corpus.Rows(), Options{
		Bins: 8, Ensemble: 2, Epochs: 8, Hidden: []int{16}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix, corpus
}

// counterValue reads one counter from the index registry's JSON snapshot.
func counterValue(t *testing.T, ix *Index, name string) uint64 {
	t.Helper()
	v, ok := telemetry.JSONSnapshot(ix.Telemetry())[name]
	if !ok {
		t.Fatalf("metric %s not registered", name)
	}
	u, ok := v.(uint64)
	if !ok {
		t.Fatalf("metric %s is %T, want uint64", name, v)
	}
	return u
}

// TestQueryTelemetry: the query path must account queries, candidates,
// probed bins, tombstone skips, and latency samples exactly.
func TestQueryTelemetry(t *testing.T) {
	ix, corpus := buildTelemetryIndex(t)
	s := ix.NewSearcher()
	dst := make([]Result, 0, 5)

	const nq = 20
	wantCands := uint64(0)
	for qi := 0; qi < nq; qi++ {
		var err error
		dst, err = s.SearchInto(dst[:0], corpus.Row(qi), 5, SearchOptions{Probes: 2})
		if err != nil {
			t.Fatal(err)
		}
		wantCands += uint64(s.Scanned())
	}

	if got := counterValue(t, ix, "usp_queries_total"); got != nq {
		t.Errorf("usp_queries_total = %d, want %d", got, nq)
	}
	if got := counterValue(t, ix, "usp_query_candidates_total"); got != wantCands {
		t.Errorf("usp_query_candidates_total = %d, want %d", got, wantCands)
	}
	// Best-confidence with probes=2 scans 2 bins per query.
	if got := counterValue(t, ix, "usp_query_bins_probed_total"); got != 2*nq {
		t.Errorf("usp_query_bins_probed_total = %d, want %d", got, 2*nq)
	}
	if got := counterValue(t, ix, "usp_query_tombstones_skipped_total"); got != 0 {
		t.Errorf("usp_query_tombstones_skipped_total = %d before any delete", got)
	}
	// Each flat member is one model.
	if got := counterValue(t, ix, "usp_route_models_total"); got != 2*nq {
		t.Errorf("usp_route_models_total = %d, want %d", got, 2*nq)
	}
	lat := telemetry.JSONSnapshot(ix.Telemetry())["usp_query_latency_seconds"].(map[string]any)
	if lat["count"].(uint64) != nq {
		t.Errorf("latency histogram count = %v, want %d", lat["count"], nq)
	}

	// Validation failures count as errors, not queries.
	if _, err := s.SearchInto(dst[:0], corpus.Row(0)[:3], 5, SearchOptions{}); err == nil {
		t.Fatal("short query accepted")
	}
	if _, err := s.SearchInto(dst[:0], corpus.Row(0), 0, SearchOptions{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if got := counterValue(t, ix, "usp_query_errors_total"); got != 2 {
		t.Errorf("usp_query_errors_total = %d, want 2", got)
	}
	if got := counterValue(t, ix, "usp_queries_total"); got != nq {
		t.Errorf("usp_queries_total after errors = %d, want %d", got, nq)
	}
}

// TestLifecycleTelemetry: Add/Delete/Compact must move the lifecycle
// counters, the tombstone-skip counter must reflect filtered scan work, and
// the epoch-publish counter must track every publication.
func TestLifecycleTelemetry(t *testing.T) {
	ix, corpus := buildTelemetryIndex(t)
	basePub := counterValue(t, ix, "usp_epoch_publishes_total")
	if basePub != 1 {
		t.Errorf("initial publishes = %d, want 1 (the build)", basePub)
	}

	// Add a near-duplicate, find it, delete it, search again (the scan now
	// has to skip its tombstone), compact, and verify the ledger.
	vec := append([]float32(nil), corpus.Row(3)...)
	vec[0] += 0.01
	id, err := ix.Add(vec)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(id); err != nil {
		t.Fatal(err)
	}
	s := ix.NewSearcher()
	if _, err := s.Search(vec, 3, SearchOptions{Probes: 2}); err != nil {
		t.Fatal(err)
	}
	if s.Skipped() == 0 {
		t.Error("query near a fresh tombstone skipped nothing")
	}
	if got := counterValue(t, ix, "usp_query_tombstones_skipped_total"); got != uint64(s.Skipped()) {
		t.Errorf("usp_query_tombstones_skipped_total = %d, want %d", got, s.Skipped())
	}

	ix.Compact()
	ix.Compact() // second run: nothing pending → noop counter

	if got := counterValue(t, ix, "usp_adds_total"); got != 1 {
		t.Errorf("usp_adds_total = %d, want 1", got)
	}
	if got := counterValue(t, ix, "usp_deletes_total"); got != 1 {
		t.Errorf("usp_deletes_total = %d, want 1", got)
	}
	if got := counterValue(t, ix, "usp_compactions_total"); got != 1 {
		t.Errorf("usp_compactions_total = %d, want 1", got)
	}
	if got := counterValue(t, ix, "usp_compaction_noops_total"); got != 1 {
		t.Errorf("usp_compaction_noops_total = %d, want 1", got)
	}
	// build + add + delete + one real compaction = 4 publications.
	if got := counterValue(t, ix, "usp_epoch_publishes_total"); got != 4 {
		t.Errorf("usp_epoch_publishes_total = %d, want 4", got)
	}
	snap := telemetry.JSONSnapshot(ix.Telemetry())
	if c := snap["usp_compaction_latency_seconds"].(map[string]any)["count"].(uint64); c != 1 {
		t.Errorf("compaction latency samples = %d, want 1", c)
	}
	if age := snap["usp_epoch_age_seconds"].(float64); age < 0 || age > 60 {
		t.Errorf("usp_epoch_age_seconds = %v, want small and non-negative", age)
	}
	if live := snap["usp_live_vectors"].(float64); live != 400 {
		t.Errorf("usp_live_vectors = %v, want 400 (add was deleted)", live)
	}
	if dead := snap["usp_dead_rows"].(float64); dead != 1 {
		t.Errorf("usp_dead_rows = %v, want 1 after compaction", dead)
	}

	if ix.EpochAge() < 0 {
		t.Errorf("EpochAge negative: %v", ix.EpochAge())
	}
}

// TestTelemetryPrometheusExposition: the registry must render the core
// series as Prometheus text.
func TestTelemetryPrometheusExposition(t *testing.T) {
	ix, corpus := buildTelemetryIndex(t)
	if _, err := ix.Search(corpus.Row(0), 5, SearchOptions{Probes: 2}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := telemetry.WritePrometheus(&sb, ix.Telemetry()); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE usp_query_latency_seconds histogram",
		`usp_query_latency_seconds_bucket{le="+Inf"} 1`,
		"usp_query_latency_seconds_count 1",
		"usp_queries_total 1",
		"usp_query_candidates_total",
		"usp_rows 400",
		"usp_pending_inserts 0",
		"usp_tombstones 0",
		"# TYPE usp_compactions_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestSearchBatchTelemetry: batch queries record per-query metrics through
// the pooled Searchers, concurrently.
func TestSearchBatchTelemetry(t *testing.T) {
	ix, corpus := buildTelemetryIndex(t)
	queries := make([][]float32, 50)
	for i := range queries {
		queries[i] = corpus.Row(i)
	}
	if _, err := ix.SearchBatch(queries, 5, SearchOptions{Probes: 2}); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, ix, "usp_queries_total"); got != 50 {
		t.Errorf("usp_queries_total after batch = %d, want 50", got)
	}
	if got := counterValue(t, ix, "usp_route_models_total"); got != 100 {
		t.Errorf("usp_route_models_total after batch = %d, want 2 members × 50", got)
	}
	lat := telemetry.JSONSnapshot(ix.Telemetry())["usp_query_latency_seconds"].(map[string]any)
	if lat["count"].(uint64) != 50 {
		t.Errorf("latency samples after batch = %v, want 50", lat["count"])
	}

	// A rejected batch is one error, whichever entry point and whichever
	// check refused it, and no query.
	nan := append([]float32(nil), queries[1]...)
	nan[0] = float32(math.NaN())
	for _, bad := range []struct {
		name    string
		queries [][]float32
		k       int
	}{
		{"k=0", queries, 0},
		{"short row", [][]float32{queries[0], queries[1][:3]}, 5},
		{"NaN row", [][]float32{queries[0], nan}, 5},
	} {
		if _, err := ix.SearchBatch(bad.queries, bad.k, SearchOptions{}); !errors.Is(err, ErrInvalid) {
			t.Fatalf("SearchBatch %s: err = %v, want ErrInvalid", bad.name, err)
		}
	}
	if _, _, err := ix.SearchBatchScanned(queries, -1, SearchOptions{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("SearchBatchScanned k=-1: err = %v, want ErrInvalid", err)
	}
	if got := counterValue(t, ix, "usp_query_errors_total"); got != 4 {
		t.Errorf("usp_query_errors_total after 4 rejected batches = %d, want 4", got)
	}
	if got := counterValue(t, ix, "usp_queries_total"); got != 50 {
		t.Errorf("usp_queries_total after rejected batches = %d, want 50", got)
	}
}

// TestRouteModelsTelemetry: on a [4,4] tree (5 models) a single query at
// Probes 1 runs the root and at least one child but, the tree being
// trained, fewer than all five on average; a batch of the same queries runs
// exactly the models they ran one by one. At Probes 16, single or batched,
// every query runs all five.
func TestRouteModelsTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	corpus := dataset.GaussianMixture(dataset.GaussianMixtureConfig{
		N: 600, Dim: 16, Clusters: 8, ClusterStd: 0.5, CenterBox: 3,
	}, rng)
	ix, err := Build(corpus.Rows(), Options{Hierarchy: []int{4, 4}, Epochs: 8, Hidden: []int{16}, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	const nq = 40
	queries := corpus.Rows()[:nq]
	s := ix.NewSearcher()
	for _, q := range queries {
		if _, err := s.Search(q, 5, SearchOptions{Probes: 1}); err != nil {
			t.Fatal(err)
		}
	}
	pruned := counterValue(t, ix, "usp_route_models_total")
	if pruned < 2*nq || pruned >= 5*nq {
		t.Errorf("usp_route_models_total at Probes 1 = %d, want in [%d, %d)", pruned, 2*nq, 5*nq)
	}
	if _, err := ix.SearchBatch(queries, 5, SearchOptions{Probes: 1}); err != nil {
		t.Fatal(err)
	}
	before := counterValue(t, ix, "usp_route_models_total")
	if got := before - pruned; got != pruned {
		t.Errorf("usp_route_models_total of a batch at Probes 1 = %d, the same queries one by one %d", got, pruned)
	}
	for _, q := range queries {
		if _, err := s.Search(q, 5, SearchOptions{Probes: 16}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ix.SearchBatch(queries, 5, SearchOptions{Probes: 16}); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, ix, "usp_route_models_total") - before; got != 2*5*nq {
		t.Errorf("usp_route_models_total at Probes 16 = %d, want %d", got, 2*5*nq)
	}
}
