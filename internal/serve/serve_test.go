package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	usp "repro"
	"repro/internal/dataset"
)

func testCorpus(t testing.TB, seed int64, n, dim int) *dataset.Labeled {
	t.Helper()
	return dataset.GaussianMixture(dataset.GaussianMixtureConfig{
		N: n, Dim: dim, Clusters: 6, ClusterStd: 0.3, CenterBox: 3,
	}, rand.New(rand.NewSource(seed)))
}

func testIndex(t testing.TB, corpus *dataset.Labeled) *usp.Index {
	t.Helper()
	ix, err := usp.Build(corpus.Rows(), usp.Options{
		Bins: 4, Epochs: 20, Hidden: []int{16}, Seed: 3, CompactAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// oneSection is a snapshot file holding the one section id with payload.
func oneSection(id uint32, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32([]byte("USPSNAP1"), 1) // version
	b = binary.LittleEndian.AppendUint32(b, 1)                   // section count
	b = binary.LittleEndian.AppendUint32(b, id)
	b = binary.LittleEndian.AppendUint32(b, 0)  // reserved
	b = binary.LittleEndian.AppendUint64(b, 40) // offset: right after this table
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	return append(b, payload...)
}

func post(t testing.TB, ts *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t testing.TB, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestEndpointValidation is the table-driven contract suite: every
// endpoint's accepted and rejected parameter shapes, with the exact
// status class the fan-out front keys its retry decision on.
func TestEndpointValidation(t *testing.T) {
	corpus := testCorpus(t, 41, 400, 8)
	dir := t.TempDir()
	srv := New(testIndex(t, corpus), Config{DataDir: dir})
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()
	// Two snapshots of a few dozen bytes whose one section claims 128 GiB:
	// 2^28 rows of 128 floats, and 2^34 tombstone words. Loading either used
	// to end the process out of memory.
	rows := binary.LittleEndian.AppendUint64(nil, 1<<28)
	rows = binary.LittleEndian.AppendUint32(rows, 128)
	rows = binary.LittleEndian.AppendUint32(rows, 0)
	for name, file := range map[string][]byte{
		"rows.usps":  oneSection(3, rows),
		"tombs.usps": oneSection(5, binary.LittleEndian.AppendUint64(nil, 1<<34)),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), file, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	q := corpus.Row(3)
	short := q[:4]
	// Finite, but their squared norms overflow float32: the engine refuses
	// them, where it used to answer with +Inf or NaN distances that the
	// reply encoder then failed on (a 500).
	big, huge := make([]float32, len(q)), make([]float32, len(q))
	for i := range q {
		big[i], huge[i] = 1e20, 3e37
	}

	for _, tc := range []struct {
		name string
		path string
		body any
		want int
	}{
		{"search ok", "/search", SearchRequest{Vector: q, K: 5, Probes: 2}, 200},
		{"search default probes", "/search", SearchRequest{Vector: q, K: 5}, 200},
		{"search k missing", "/search", SearchRequest{Vector: q}, 400},
		{"search k zero", "/search", SearchRequest{Vector: q, K: 0}, 400},
		{"search k negative", "/search", SearchRequest{Vector: q, K: -3}, 400},
		{"search probes negative", "/search", SearchRequest{Vector: q, K: 5, Probes: -1}, 400},
		{"search rerank adc-only", "/search", SearchRequest{Vector: q, K: 5, RerankK: -1}, 200},
		{"search rerank positive", "/search", SearchRequest{Vector: q, K: 5, RerankK: 40}, 200},
		{"search rerank invalid", "/search", SearchRequest{Vector: q, K: 5, RerankK: -2}, 400},
		// k and rerank_k have no upper bound on the wire; the engine clamps
		// them to its row count instead of sizing buffers from them. The
		// rows after this one show the server still answers.
		{"search k and rerank unbounded", "/search", SearchRequest{Vector: q, K: 1 << 40, Probes: 2, RerankK: 1 << 40}, 200},
		{"batch k and rerank unbounded", "/search/batch", BatchSearchRequest{Vectors: [][]float32{q, corpus.Row(7)}, K: 1 << 40, RerankK: 1 << 40}, 200},
		{"search dim mismatch", "/search", SearchRequest{Vector: short, K: 5}, 400},
		{"search empty vector", "/search", SearchRequest{K: 5}, 400},
		{"search overflowing norm", "/search", SearchRequest{Vector: huge, K: 5}, 400},
		{"batch overflowing norm", "/search/batch", BatchSearchRequest{Vectors: [][]float32{q, huge}, K: 3}, 400},
		{"add overflowing norm", "/add", AddRequest{Vector: big}, 400},
		{"batch ok", "/search/batch", BatchSearchRequest{Vectors: [][]float32{q, corpus.Row(7)}, K: 3, Probes: 2}, 200},
		{"batch k zero", "/search/batch", BatchSearchRequest{Vectors: [][]float32{q}}, 400},
		{"batch probes negative", "/search/batch", BatchSearchRequest{Vectors: [][]float32{q}, K: 3, Probes: -2}, 400},
		{"batch rerank invalid", "/search/batch", BatchSearchRequest{Vectors: [][]float32{q}, K: 3, RerankK: -7}, 400},
		{"batch dim mismatch", "/search/batch", BatchSearchRequest{Vectors: [][]float32{q, short}, K: 3}, 400},
		{"add ok", "/add", AddRequest{Vector: q}, 200},
		{"add dim mismatch", "/add", AddRequest{Vector: short}, 400},
		{"delete ok", "/delete", DeleteRequest{ID: 5}, 200},
		{"delete repeat", "/delete", DeleteRequest{ID: 5}, 404},
		{"delete out of range", "/delete", DeleteRequest{ID: 1 << 30}, 404},
		{"compact ok", "/compact", nil, 200},
		{"save ok", "/save", SaveRequest{Path: "ok.usps"}, 200},
		{"reload ok", "/reload", ReloadRequest{Path: "ok.usps"}, 200},
		{"save escape", "/save", SaveRequest{Path: "../escape.usps"}, 400},
		{"save absolute", "/save", SaveRequest{Path: "/etc/owned.usps"}, 400},
		{"save empty", "/save", SaveRequest{}, 400},
		{"reload escape", "/reload", ReloadRequest{Path: "../../etc/passwd"}, 400},
		{"reload missing", "/reload", ReloadRequest{Path: "nope.usps"}, 404},
		{"reload empty", "/reload", ReloadRequest{}, 400},
		{"reload oversized rows", "/reload", ReloadRequest{Path: "rows.usps"}, 400},
		{"reload oversized tombstones", "/reload", ReloadRequest{Path: "tombs.usps"}, 400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(t, ts, tc.path, tc.body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s: HTTP %d, want %d", tc.path, tc.name, resp.StatusCode, tc.want)
			}
		})
	}

	// An unbounded k is answered with at most one result per row.
	out := decode[SearchResponse](t, post(t, ts, "/search", SearchRequest{Vector: q, K: 1 << 40, Probes: 2}))
	if n := len(out.IDs); n == 0 || n > corpus.N+1 { // the table added one row
		t.Fatalf("k=1<<40 returned %d results from %d rows", n, corpus.N+1)
	}

	// Malformed JSON is 400 on every POST endpoint.
	for _, path := range []string{"/search", "/search/batch", "/add", "/delete", "/save", "/reload"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with truncated JSON: HTTP %d, want 400", path, resp.StatusCode)
		}
	}

	// A search or add body is one JSON value and nothing else, of bounded
	// size; a shape off the codec's canonical grammar that encoding/json
	// accepts is still accepted.
	small := `{"vector":[0,0,0,0,0,0,0,0],"k":3}`
	add := `{"vector":[0,0,0,0,0,0,0,0]}`
	rowsBefore := srv.Index().Lifecycle().Rows
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"search trailing garbage", "/search", small + " trailing-garbage", 400},
		{"search second value", "/search", small + small, 400},
		{"search trailing space", "/search", small + " \r\n\t", 200},
		{"batch trailing garbage", "/search/batch", `{"vectors":[[0,0,0,0,0,0,0,0]],"k":3}]`, 400},
		{"search non-canonical", "/search", `{"K":3,"note":{"a":[1,null]},"v\u0065ctor":[0,0,0,0,0,0,0,0]}`, 200},
		{"batch non-canonical", "/search/batch", `{"vectors":[[0,0,0,0,0,0,0,0]],"k":3,"probes":null}`, 200},
		{"search over the body cap", "/search", strings.Repeat(" ", MaxBodyBytes) + small, 413},
		{"batch over the body cap", "/search/batch", strings.Repeat(" ", MaxBodyBytes) + small, 413},
		{"add second value", "/add", add + add, 400},
		{"add over the body cap", "/add", strings.Repeat(" ", MaxBodyBytes) + add, 413},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: HTTP %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	if rows := srv.Index().Lifecycle().Rows; rows != rowsBefore {
		t.Fatalf("refused adds appended rows: %d -> %d", rowsBefore, rows)
	}

	// Non-finite vectors are 400 on every endpoint that takes one. JSON has
	// no NaN/Inf literal, so over the wire the only non-finite input is a
	// number beyond float32 range, refused at decode; a caller of the
	// in-process entry point can pass one, and the engine's ErrInvalid must
	// classify as 400 without failing the requests batched beside it.
	for path, body := range map[string]string{
		"/search":       `{"vector":[1e39,0,0,0,0,0,0,0],"k":3}`,
		"/search/batch": `{"vectors":[[0,0,0,0,0,0,0,-1e39]],"k":3}`,
		"/add":          `{"vector":[0,1e39,0,0,0,0,0,0]}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with an out-of-range component: HTTP %d, want 400", path, resp.StatusCode)
		}
	}
	batching := New(srv.Index(), Config{DataDir: t.TempDir(), BatchWindow: time.Millisecond})
	defer batching.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vec := append([]float32(nil), q...)
			if i == 3 {
				vec[2] = float32(math.NaN())
			}
			_, _, err := batching.Search(vec, 5, 2, 0)
			switch {
			case i == 3 && (err == nil || statusFor(err) != http.StatusBadRequest):
				t.Errorf("NaN query: error %v, want one that maps to 400", err)
			case i != 3 && err != nil:
				t.Errorf("finite query beside a NaN one failed: %v", err)
			}
		}(i)
	}
	wg.Wait()

	// GET on a POST endpoint is 405.
	resp, err := http.Get(ts.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /search: HTTP %d, want 405", resp.StatusCode)
	}
}

// TestSearchRepliesAreEncodingJSONBytes: over the wire a reply is exactly
// what json.Encoder wrote for the same struct, with its length announced.
func TestSearchRepliesAreEncodingJSONBytes(t *testing.T) {
	corpus := testCorpus(t, 67, 400, 8)
	srv := New(testIndex(t, corpus), Config{DataDir: t.TempDir()})
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()

	check := func(path string, body, into any) {
		t.Helper()
		resp := post(t, ts, path, body)
		raw := []byte(readAll(t, resp))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", path, resp.StatusCode, raw)
		}
		if resp.ContentLength != int64(len(raw)) || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s: Content-Length %d for %d bytes, Content-Type %q", path, resp.ContentLength, len(raw), resp.Header.Get("Content-Type"))
		}
		if err := json.Unmarshal(raw, into); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(into); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want.Bytes()) {
			t.Fatalf("%s reply\n got %q\nwant %q", path, raw, want.Bytes())
		}
	}
	var sr SearchResponse
	check("/search", SearchRequest{Vector: corpus.Row(3), K: 5, Probes: 2}, &sr)
	if len(sr.IDs) != 5 || sr.IDs[0] != 3 {
		t.Fatalf("search for row 3 returned %v, want 5 ids led by 3", sr.IDs)
	}
	rows := make([][]float32, 300) // large enough that net/http would chunk it
	for i := range rows {
		rows[i] = corpus.Row(i)
	}
	var br BatchSearchResponse
	check("/search/batch", BatchSearchRequest{Vectors: rows, K: 5, Probes: 2}, &br)
	for _, i := range []int{3, 7, 11} {
		if len(br.IDs[i]) != 5 || br.IDs[i][0] != i {
			t.Fatalf("batch row %d returned %v, want 5 ids led by %d", i, br.IDs[i], i)
		}
	}
	check("/search/batch", BatchSearchRequest{Vectors: [][]float32{}, K: 5}, &br)
	if br.IDs == nil || br.Distances == nil {
		t.Fatalf("a batch of no queries answered null: %+v", br)
	}
}

// TestAddReportsTheMintingEnginesOffset: the id and the id_offset of an /add
// reply come from one engine even when /reload swaps engines in between.
// The two engines here mint disjoint ids (from 400 up, and 200 to 349), so a reply
// pairing one's id with the other's offset is recognisable.
func TestAddReportsTheMintingEnginesOffset(t *testing.T) {
	corpus := testCorpus(t, 71, 400, 8)
	whole := testIndex(t, corpus)
	shards, err := whole.Shard(2)
	if err != nil {
		t.Fatal(err)
	}
	tail := shards[1]
	const adds = 150
	if tail.IDOffset() == 0 || tail.Len()+adds > corpus.N {
		t.Fatalf("tail shard: offset %d, %d rows", tail.IDOffset(), tail.Len())
	}
	srv := New(whole, Config{DataDir: t.TempDir()})
	mux := srv.Mux()
	engines := [2]*engine{srv.eng.Load(), newEngine(tail)}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				srv.eng.Store(engines[i%2])
				runtime.Gosched()
			}
		}
	}()
	body, err := json.Marshal(AddRequest{Vector: corpus.Row(0)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < adds; i++ {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/add", bytes.NewReader(body)))
		var ar AddResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &ar) != nil {
			t.Fatalf("add %d: HTTP %d: %s", i, rec.Code, rec.Body)
		}
		if mintedByWhole := ar.ID >= corpus.N; mintedByWhole != (ar.IDOffset == 0) {
			close(stop)
			swapper.Wait()
			t.Fatalf("add %d: id %d reported with id_offset %d — id and offset come from different engines", i, ar.ID, ar.IDOffset)
		}
	}
	close(stop)
	swapper.Wait()
}

// TestSearchProbesDefaulting pins the one remaining defaulted parameter:
// probes:0 must behave exactly like probes:1.
func TestSearchProbesDefaulting(t *testing.T) {
	corpus := testCorpus(t, 43, 400, 8)
	srv := New(testIndex(t, corpus), Config{DataDir: t.TempDir()})
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()

	q := corpus.Row(11)
	a := decode[SearchResponse](t, post(t, ts, "/search", SearchRequest{Vector: q, K: 5}))
	b := decode[SearchResponse](t, post(t, ts, "/search", SearchRequest{Vector: q, K: 5, Probes: 1}))
	if len(a.IDs) != len(b.IDs) {
		t.Fatalf("probes 0 vs 1: %d vs %d results", len(a.IDs), len(b.IDs))
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] || a.Distances[i] != b.Distances[i] {
			t.Fatalf("probes 0 vs 1 diverge at %d: %d/%v vs %d/%v",
				i, a.IDs[i], a.Distances[i], b.IDs[i], b.Distances[i])
		}
	}
}

// TestRerankDefaultResolution pins the server-default plumbing: with a
// configured RerankK of -1, an unset rerank_k serves ADC distances while
// an explicit positive depth still re-ranks exactly.
func TestRerankDefaultResolution(t *testing.T) {
	corpus := testCorpus(t, 47, 500, 16)
	ix, err := usp.Build(corpus.Rows(), usp.Options{
		Bins: 4, Epochs: 20, Hidden: []int{16}, Seed: 5,
		Quantize: usp.Quantization{Enabled: true, Subspaces: 8, K: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(ix, Config{DataDir: t.TempDir(), RerankK: -1})
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()

	q := corpus.Row(3)
	adc := decode[SearchResponse](t, post(t, ts, "/search", SearchRequest{Vector: q, K: 5, Probes: 2}))
	exact := decode[SearchResponse](t, post(t, ts, "/search", SearchRequest{Vector: q, K: 5, Probes: 2, RerankK: 1 << 20}))
	if len(adc.IDs) == 0 || len(exact.IDs) == 0 {
		t.Fatal("empty results")
	}
	// The exact top hit is the query row itself at distance ~0; the ADC
	// distance for the same row is quantized and differs.
	if exact.IDs[0] != 3 {
		t.Fatalf("exact top hit %d, want 3", exact.IDs[0])
	}
	if adc.Distances[0] == exact.Distances[0] {
		t.Fatalf("server-default ADC path returned exact distance %v — default rerank_k not applied", adc.Distances[0])
	}
}

// TestReloadSwapsIndex: /save then /reload from the data directory must
// swap the serving index (generation bump, healthz reflects it) without
// restarting the server, rolling back what was added since the save.
func TestReloadSwapsIndex(t *testing.T) {
	corpus := testCorpus(t, 53, 400, 8)
	dir := t.TempDir()
	srv := New(testIndex(t, corpus), Config{DataDir: dir})
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()

	// Snapshot the current state, mutate, then reload the snapshot: the
	// mutation must be rolled back.
	sv := decode[SaveResponse](t, post(t, ts, "/save", SaveRequest{Path: "snap.usps"}))
	if sv.Path != filepath.Join(dir, "snap.usps") {
		t.Fatalf("save landed at %s", sv.Path)
	}
	before := decode[HealthzResponse](t, mustGet(t, ts, "/healthz"))
	if before.Status != "ok" || !before.IndexLoaded || before.Generation != 0 {
		t.Fatalf("healthz before reload %+v, want ok, loaded, generation 0", before)
	}
	nv := append([]float32(nil), corpus.Row(5)...)
	nv[0] += 0.01
	ar := decode[AddResponse](t, post(t, ts, "/add", AddRequest{Vector: nv}))
	if ar.ID != before.Vectors {
		t.Fatalf("add assigned id %d, want %d", ar.ID, before.Vectors)
	}
	if sr := decode[SearchResponse](t, post(t, ts, "/search", SearchRequest{Vector: nv, K: 1, Probes: 2})); len(sr.IDs) != 1 || sr.IDs[0] != ar.ID {
		t.Fatalf("added id %d, search for its vector found %v", ar.ID, sr.IDs)
	}

	rr := decode[ReloadResponse](t, post(t, ts, "/reload", ReloadRequest{Path: "snap.usps"}))
	if rr.Generation != 1 || rr.Vectors != before.Vectors {
		t.Fatalf("reload response %+v, want generation 1 with %d vectors", rr, before.Vectors)
	}
	after := decode[HealthzResponse](t, mustGet(t, ts, "/healthz"))
	if after.Status != "ok" || !after.IndexLoaded || after.Generation != 1 || after.Vectors != before.Vectors || after.EpochAgeSeconds > 60 {
		t.Fatalf("healthz after reload %+v, want ok, loaded, generation 1 with %d vectors", after, before.Vectors)
	}
	for _, id := range decode[SearchResponse](t, post(t, ts, "/search", SearchRequest{Vector: nv, K: 3, Probes: 2})).IDs {
		if id == ar.ID {
			t.Fatalf("id %d added after the save is still served after the reload", id)
		}
	}
	if sr := decode[SearchResponse](t, post(t, ts, "/search", SearchRequest{Vector: corpus.Row(3), K: 5, Probes: 2})); len(sr.IDs) != 5 || sr.IDs[0] != 3 {
		t.Fatalf("after the reload, search for row 3 returned %v, want 5 ids led by 3", sr.IDs)
	}
}

// TestReloadUnderConcurrentLoad is the rolling-restart acceptance test:
// a stream of /search traffic runs while the index is reloaded many
// times, and not a single request may fail — in-flight queries finish on
// the engine they resolved, new ones land on the fresh engine.
func TestReloadUnderConcurrentLoad(t *testing.T) {
	corpus := testCorpus(t, 59, 400, 8)
	dir := t.TempDir()
	srv := New(testIndex(t, corpus), Config{DataDir: dir})
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()

	if resp := post(t, ts, "/save", SaveRequest{Path: "snap.usps"}); resp.StatusCode != 200 {
		t.Fatalf("save: HTTP %d", resp.StatusCode)
	}

	const workers = 8
	var stop atomic.Bool
	var searches, failures atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stop.Load() {
				q := corpus.Row((w * 37) % corpus.N)
				resp := post(t, ts, "/search", SearchRequest{Vector: q, K: 5, Probes: 2})
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				} else {
					r := decode[SearchResponse](t, resp)
					if len(r.IDs) != 5 {
						failures.Add(1)
					}
				}
				if resp.StatusCode == http.StatusOK {
					searches.Add(1)
				}
			}
		}(w)
	}

	const reloads = 25
	for i := 0; i < reloads; i++ {
		rr := post(t, ts, "/reload", ReloadRequest{Path: "snap.usps"})
		rr.Body.Close()
		if rr.StatusCode != http.StatusOK {
			t.Errorf("reload %d: HTTP %d", i, rr.StatusCode)
		}
	}
	stop.Store(true)
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d of %d searches failed during %d rolling reloads",
			failures.Load(), failures.Load()+searches.Load(), reloads)
	}
	if srv.Generation() != reloads {
		t.Fatalf("generation %d, want %d", srv.Generation(), reloads)
	}
	if searches.Load() == 0 {
		t.Fatal("no successful searches overlapped the reloads")
	}
	t.Logf("%d searches, 0 failures across %d reloads", searches.Load(), reloads)
}

// TestMetricsFollowReload: /metrics must expose the freshly loaded
// index's series, not the retired engine's.
func TestMetricsFollowReload(t *testing.T) {
	corpus := testCorpus(t, 61, 400, 8)
	dir := t.TempDir()
	srv := New(testIndex(t, corpus), Config{DataDir: dir})
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()

	if resp := post(t, ts, "/save", SaveRequest{Path: "snap.usps"}); resp.StatusCode != 200 {
		t.Fatalf("save: HTTP %d", resp.StatusCode)
	}
	if resp := post(t, ts, "/reload", ReloadRequest{Path: "snap.usps"}); resp.StatusCode != 200 {
		t.Fatalf("reload: HTTP %d", resp.StatusCode)
	}
	// Traffic after the swap must show up in the scrape (the new index's
	// registry starts at zero, so one search means count >= 1).
	resp := post(t, ts, "/search", SearchRequest{Vector: corpus.Row(1), K: 3, Probes: 1})
	resp.Body.Close()

	body := readAll(t, mustGet(t, ts, "/metrics"))
	for _, series := range []string{
		"usp_query_latency_seconds_bucket",
		"usp_query_latency_seconds_count 1",
		"usp_query_candidates_total",
		"usp_query_bins_probed_total",
		"usp_epoch ",
		"usp_live_vectors",
		`http_requests_total{endpoint="/search"}`,
		`http_requests_total{endpoint="/reload"}`,
		`http_request_latency_seconds_bucket{endpoint="/search",le="+Inf"}`,
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("series %q missing from post-reload scrape:\n%s", series, body)
		}
	}
}

// statsReply is the body of GET /stats.
type statsReply struct {
	Vectors   int                `json:"vectors"`
	Dim       int                `json:"dim"`
	IDOffset  int                `json:"id_offset"`
	Bins      int                `json:"bins"`
	Models    int                `json:"models"`
	Params    int                `json:"params"`
	Lifecycle usp.LifecycleStats `json:"lifecycle"`
}

// TestCompactAndStats: /stats reports the served index, a deleted id
// leaves the results at once, and POST /compact folds its tombstone away
// (GET is 405). The index is a tail shard, so its id offset is not zero.
func TestCompactAndStats(t *testing.T) {
	corpus := testCorpus(t, 73, 400, 8)
	shards, err := testIndex(t, corpus).Shard(2)
	if err != nil {
		t.Fatal(err)
	}
	ix := shards[1]
	srv := New(ix, Config{DataDir: t.TempDir()})
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()

	st := decode[statsReply](t, mustGet(t, ts, "/stats"))
	bs := ix.Stats()
	want := statsReply{
		Vectors: ix.Len(), Dim: ix.Dim(), IDOffset: ix.IDOffset(),
		Bins: bs.Bins, Models: bs.Models, Params: bs.Params, Lifecycle: ix.Lifecycle(),
	}
	if st != want || st.IDOffset == 0 || st.Bins == 0 || st.Models == 0 || st.Params == 0 {
		t.Fatalf("/stats %+v, want %+v", st, want)
	}

	const id = 5
	q := corpus.Row(ix.IDOffset() + id)
	resp := post(t, ts, "/delete", DeleteRequest{ID: id})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: HTTP %d", resp.StatusCode)
	}
	for _, got := range decode[SearchResponse](t, post(t, ts, "/search", SearchRequest{Vector: q, K: 3, Probes: 2})).IDs {
		if got == id {
			t.Fatalf("deleted id %d still served", id)
		}
	}
	if lc := decode[statsReply](t, mustGet(t, ts, "/stats")).Lifecycle; lc.Tombstones != 1 || lc.Live != want.Vectors-1 {
		t.Fatalf("/stats lifecycle after a delete: %+v", lc)
	}

	resp = post(t, ts, "/compact", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: HTTP %d", resp.StatusCode)
	}
	cr := decode[statsReply](t, resp) // only its lifecycle block is set
	if lc := cr.Lifecycle; lc.Tombstones != 0 || lc.Dead != 1 || lc.Live != want.Vectors-1 {
		t.Fatalf("/compact lifecycle %+v, want no tombstones, one dead row", lc)
	}
	if lc := decode[statsReply](t, mustGet(t, ts, "/stats")).Lifecycle; lc != cr.Lifecycle {
		t.Fatalf("/stats lifecycle %+v after /compact reported %+v", lc, cr.Lifecycle)
	}
	resp, err = http.Get(ts.URL + "/compact")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /compact: HTTP %d, want 405", resp.StatusCode)
	}
}

// TestRepliesReadOneEpoch: every /healthz and /stats reply describes one
// published epoch, even while Add publishes new ones. With adds only, each
// epoch adds one row, so epoch − rows stays fixed and vectors equals rows.
func TestRepliesReadOneEpoch(t *testing.T) {
	corpus := testCorpus(t, 79, 400, 8)
	ix := testIndex(t, corpus)
	mux := New(ix, Config{DataDir: t.TempDir()}).Mux()
	lc := ix.Lifecycle()
	offset := int64(lc.Epoch) - int64(lc.Rows)

	stop := make(chan struct{})
	var adder sync.WaitGroup
	adder.Add(1)
	go func() {
		defer adder.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				if _, err := ix.Add(corpus.Row(i % corpus.N)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	defer func() {
		close(stop)
		adder.Wait()
	}()

	get := func(path string, into any) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), into) != nil {
			t.Fatalf("GET %s: HTTP %d: %s", path, rec.Code, rec.Body)
		}
	}
	const replies = 2000
	for i := 0; i < replies; i++ {
		var hz HealthzResponse
		get("/healthz", &hz)
		if int64(hz.Epoch)-int64(hz.Rows) != offset || hz.Vectors != hz.Rows {
			t.Fatalf("reply %d: /healthz epoch %d, rows %d, vectors %d come from different epochs", i, hz.Epoch, hz.Rows, hz.Vectors)
		}
		var st statsReply
		get("/stats", &st)
		if st.Vectors != st.Lifecycle.Rows {
			t.Fatalf("reply %d: /stats vectors %d beside lifecycle %+v", i, st.Vectors, st.Lifecycle)
		}
	}
	if ix.Lifecycle().Rows == lc.Rows {
		t.Fatal("no Add overlapped the replies")
	}
}

func mustGet(t testing.TB, ts *httptest.Server, path string) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return resp
}

func readAll(t testing.TB, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
