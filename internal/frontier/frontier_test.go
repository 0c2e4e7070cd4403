package frontier

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	usp "repro"
	"repro/internal/dataset"
	"repro/internal/serve"
)

func buildIndex(t testing.TB, vecs [][]float32) *usp.Index {
	t.Helper()
	ix, err := usp.Build(vecs, usp.Options{
		Bins: 4, Ensemble: 2, Epochs: 25, Hidden: []int{16}, Seed: 31, CompactAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func corpusRows(t testing.TB, seed int64, n, dim int) [][]float32 {
	t.Helper()
	l := dataset.GaussianMixture(dataset.GaussianMixtureConfig{
		N: n, Dim: dim, Clusters: 5, ClusterStd: 0.3, CenterBox: 3,
	}, rand.New(rand.NewSource(seed)))
	return l.Rows()
}

// backendFor starts an httptest backend serving ix.
func backendFor(t testing.TB, ix *usp.Index) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(serve.New(ix, serve.Config{DataDir: t.TempDir()}).Mux())
	t.Cleanup(ts.Close)
	return ts
}

// frontFor builds a Front over the given shard groups, probes health
// once, and serves it over httptest.
func frontFor(t testing.TB, cfg Config) (*Front, *httptest.Server) {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.ProbeHealth(context.Background())
	ts := httptest.NewServer(f.Mux())
	t.Cleanup(ts.Close)
	return f, ts
}

func postJSON(t testing.TB, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
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

// TestFanoutBitIdentical is the tentpole acceptance test over the real
// HTTP stack: a front fanning out over shard backends must answer every
// query bit-identically — same ids, same order, same float distance
// bits — to one process serving the union index.
func TestFanoutBitIdentical(t *testing.T) {
	vecs := corpusRows(t, 101, 600, 8)
	union := buildIndex(t, vecs)
	unionSrv := backendFor(t, union)

	for _, m := range []int{2, 3} {
		shards, err := union.Shard(m)
		if err != nil {
			t.Fatal(err)
		}
		var groups [][]string
		for _, sh := range shards {
			groups = append(groups, []string{backendFor(t, sh).URL})
		}
		_, front := frontFor(t, Config{Shards: groups})

		for _, probes := range []int{1, 2} {
			for qi := 0; qi < 40; qi++ {
				req := serve.SearchRequest{Vector: vecs[qi], K: 10, Probes: probes}
				want := decode[serve.SearchResponse](t, postJSON(t, unionSrv.URL+"/search", req))
				got := decode[serve.SearchResponse](t, postJSON(t, front.URL+"/search", req))
				if len(got.IDs) != len(want.IDs) {
					t.Fatalf("m=%d probes=%d q%d: %d ids, want %d", m, probes, qi, len(got.IDs), len(want.IDs))
				}
				for i := range got.IDs {
					if got.IDs[i] != want.IDs[i] || got.Distances[i] != want.Distances[i] {
						t.Fatalf("m=%d probes=%d q%d rank %d: got %d/%x, want %d/%x",
							m, probes, qi, i, got.IDs[i], got.Distances[i], want.IDs[i], want.Distances[i])
					}
				}
				if got.Scanned != want.Scanned {
					t.Fatalf("m=%d probes=%d q%d: scanned %d, want %d", m, probes, qi, got.Scanned, want.Scanned)
				}
			}
		}
	}
}

// TestFanoutBatchBitIdentical extends bit-equality to /search/batch.
func TestFanoutBatchBitIdentical(t *testing.T) {
	vecs := corpusRows(t, 103, 500, 8)
	union := buildIndex(t, vecs)
	unionSrv := backendFor(t, union)
	shards, err := union.Shard(2)
	if err != nil {
		t.Fatal(err)
	}
	_, front := frontFor(t, Config{Shards: [][]string{
		{backendFor(t, shards[0]).URL},
		{backendFor(t, shards[1]).URL},
	}})

	req := serve.BatchSearchRequest{Vectors: vecs[:25], K: 7, Probes: 2}
	want := decode[serve.BatchSearchResponse](t, postJSON(t, unionSrv.URL+"/search/batch", req))
	got := decode[serve.BatchSearchResponse](t, postJSON(t, front.URL+"/search/batch", req))
	if len(got.IDs) != len(want.IDs) {
		t.Fatalf("%d answers, want %d", len(got.IDs), len(want.IDs))
	}
	for qi := range got.IDs {
		if len(got.IDs[qi]) != len(want.IDs[qi]) {
			t.Fatalf("q%d: %d ids, want %d", qi, len(got.IDs[qi]), len(want.IDs[qi]))
		}
		for i := range got.IDs[qi] {
			if got.IDs[qi][i] != want.IDs[qi][i] || got.Distances[qi][i] != want.Distances[qi][i] {
				t.Fatalf("q%d rank %d: got %d/%x, want %d/%x",
					qi, i, got.IDs[qi][i], got.Distances[qi][i], want.IDs[qi][i], want.Distances[qi][i])
			}
		}
	}
}

// TestFrontValidation: the front reads no request, so the shards' verdict on
// a broken body is the front's — the same status and message a backend gives
// for the same bytes, at the cost of one request per shard group and no
// retry. Only a body over the cap is refused at the front itself, with 413
// and no backend traffic.
func TestFrontValidation(t *testing.T) {
	vecs := corpusRows(t, 107, 300, 8)
	shards, err := buildIndex(t, vecs).Shard(2)
	if err != nil {
		t.Fatal(err)
	}
	backend := backendFor(t, shards[0])
	f, front := frontFor(t, Config{Shards: [][]string{{backend.URL}, {backendFor(t, shards[1]).URL}}})
	send := func(url, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, readBody(t, resp)
	}

	vec := string(mustJSON(t, vecs[0]))
	short := string(mustJSON(t, vecs[0][:4]))
	for _, tc := range []struct{ path, body string }{
		{"/search", `{"vector":` + vec + `}`},
		{"/search", `{"vector":` + vec + `,"k":0}`},
		{"/search", `{"vector":` + vec + `,"k":-1}`},
		{"/search", `{"vector":` + vec + `,"k":5,"probes":-2}`},
		{"/search", `{"vector":` + vec + `,"k":5,"rerank_k":-3}`},
		{"/search", `{"vector":` + vec + `,"k":3} trailing-garbage`},
		{"/search", `{"vector":` + short + `,"k":5}`},
		{"/search", `{"vector":` + vec + `,"k":"1"}`},
		{"/search/batch", `{"vectors":[` + vec + `]}`},
		{"/search/batch", `{"vectors":[` + vec + `],"k":-1}`},
		{"/search/batch", `{"vectors":[` + vec + `],"k":5,"probes":-2}`},
		{"/search/batch", `{"vectors":[` + vec + `],"k":5,"rerank_k":-3}`},
		{"/search/batch", `{"vectors":[` + vec + `],"k":3}}`},
		{"/search/batch", `{"vectors":[` + vec + `,` + short + `],"k":5}`},
		{"/search/batch", `{"vectors":[` + vec + `],"k":"1"}`},
	} {
		wantStatus, want := send(backend.URL+tc.path, tc.body)
		if wantStatus != http.StatusBadRequest {
			t.Fatalf("%s %s: the backend answered HTTP %d, want 400", tc.path, tc.body, wantStatus)
		}
		before := f.fanout.Value()
		status, got := send(front.URL+tc.path, tc.body)
		if status != wantStatus || got != want {
			t.Fatalf("%s %s: front answered HTTP %d %q, a backend HTTP %d %q", tc.path, tc.body, status, got, wantStatus, want)
		}
		if n := f.fanout.Value() - before; n != uint64(len(f.groups)) {
			t.Fatalf("%s %s: %d backend requests, want one per group (%d)", tc.path, tc.body, n, len(f.groups))
		}
	}
	if f.retries.Value() != 0 {
		t.Fatalf("a backend 400 was retried %d times", f.retries.Value())
	}

	small := `{"vector":[0,0,0,0,0,0,0,0],"k":3}`
	before := f.fanout.Value()
	for _, path := range []string{"/search", "/search/batch", "/add"} {
		if status, _ := send(front.URL+path, strings.Repeat(" ", serve.MaxBodyBytes)+small); status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s over the body cap: HTTP %d, want 413", path, status)
		}
	}
	if f.fanout.Value() != before {
		t.Fatalf("bodies over the cap reached backends: fanout %d -> %d", before, f.fanout.Value())
	}

	// k and rerank_k have no upper bound on the wire: the engine clamps them
	// to its row count, so an absurd value is answered with at most that
	// many results, and the tier keeps answering afterwards.
	for _, req := range []serve.SearchRequest{
		{Vector: vecs[0], K: 1 << 40, Probes: 2, RerankK: 1 << 40},
		{Vector: vecs[0], K: 5, Probes: 2},
	} {
		resp := postJSON(t, front.URL+"/search", req)
		var out serve.SearchResponse
		err := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("k=%d: HTTP %d, decode error %v", req.K, resp.StatusCode, err)
		}
		if len(out.IDs) == 0 || len(out.IDs) > len(vecs) || len(out.IDs) > req.K {
			t.Fatalf("k=%d: %d results from %d rows", req.K, len(out.IDs), len(vecs))
		}
	}
}

// TestFrontForwardsClientBytes: each shard receives exactly the bytes the
// client sent — the front neither decodes nor re-encodes them — so the
// backend's verdict on a body is the front's.
func TestFrontForwardsClientBytes(t *testing.T) {
	vecs := corpusRows(t, 149, 300, 8)
	shards, err := buildIndex(t, vecs).Shard(2)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	received := map[string][][]byte{}
	var groups [][]string
	for _, sh := range shards {
		rec := recordingProxy(t, backendFor(t, sh), func(path string, body []byte) {
			mu.Lock()
			received[path] = append(received[path], body)
			mu.Unlock()
		})
		groups = append(groups, []string{rec.URL})
	}
	_, front := frontFor(t, Config{Shards: groups})

	// Canonical, oddly spaced and reordered, and off the canonical grammar.
	for path, bodies := range map[string][]string{
		"/search": {
			`{"vector":[0.5,1,1.5,2,2.5,3,3.5,4],"k":3,"probes":2,"rerank_k":0}`,
			"{ \"k\" : 3,\n\t\"vector\" : [ 5E-1, 1.0, 1.5, 2, 2.5, 3, 3.5, 4.000 ] }\r\n",
			`{"K":3,"vector":[0.5,1,1.5,2,2.5,3,3.5,4],"comment":"kept as sent"}`,
		},
		"/search/batch": {
			`{"vectors":[[0.5,1,1.5,2,2.5,3,3.5,4],[4,3,2,1,0,1,2,3]],"k":3,"probes":2,"rerank_k":0}`,
			` {"probes" :1, "k":2 ,"vectors": [ [0.5,1,1.5,2,2.5,3,3.5,4] ] } `,
		},
	} {
		for _, body := range bodies {
			mu.Lock()
			clear(received)
			mu.Unlock()
			resp, err := http.Post(front.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			reply := readBody(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %q: HTTP %d: %s", path, body, resp.StatusCode, reply)
			}
			mu.Lock()
			got := received[path]
			mu.Unlock()
			if len(got) != len(groups) {
				t.Fatalf("%s %q: %d backend requests, want %d", path, body, len(got), len(groups))
			}
			for _, b := range got {
				if string(b) != body {
					t.Fatalf("%s: backend received\n%q\nclient sent\n%q", path, b, body)
				}
			}
		}
	}
}

// recordingProxy serves target's endpoints, handing each POST body to record
// on its way through.
func recordingProxy(t testing.TB, target *httptest.Server, record func(path string, body []byte)) *httptest.Server {
	t.Helper()
	rec := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet { // health probes
			http.Redirect(w, r, target.URL+r.URL.Path, http.StatusTemporaryRedirect)
			return
		}
		body, _ := io.ReadAll(r.Body)
		record(r.URL.Path, body)
		resp, err := http.Post(target.URL+r.URL.Path, "application/json", bytes.NewReader(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}))
	t.Cleanup(rec.Close)
	return rec
}

// TestLyingShardReplyIsRefused: a shard reply the front cannot merge — ids
// and distances that do not pair up, no k, a k other than its sibling
// group's, or a batch answer to a different number of queries — is a 502
// for that request, and must not wedge the front: the same query, once the
// shard answers properly again, gets its answer. The failed request leaves
// nothing behind that a later one could wait on.
func TestLyingShardReplyIsRefused(t *testing.T) {
	vecs := corpusRows(t, 151, 300, 8)
	shards, err := buildIndex(t, vecs).Shard(2)
	if err != nil {
		t.Fatal(err)
	}
	good := backendFor(t, shards[1])
	// The lie is the shard's /search and /search/batch reply; nil, or an
	// empty reply, forwards to the honest backend.
	var lie atomic.Pointer[[2]string]
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reply := ""
		if replies := lie.Load(); replies != nil && r.URL.Path == "/search" {
			reply = replies[0]
		} else if replies != nil && r.URL.Path == "/search/batch" {
			reply = replies[1]
		}
		if reply == "" {
			http.Redirect(w, r, good.URL+r.URL.Path, http.StatusTemporaryRedirect)
			return
		}
		_, _ = io.WriteString(w, reply)
	}))
	defer shard.Close()
	// The lying shard is the first group, so no reply before it vouches for a k.
	_, front := frontFor(t, Config{Shards: [][]string{{shard.URL}, {backendFor(t, shards[0]).URL}}})
	client := &http.Client{Timeout: 10 * time.Second}

	search := mustJSON(t, serve.SearchRequest{Vector: vecs[0], K: 3, Probes: 2})
	batch := mustJSON(t, serve.BatchSearchRequest{Vectors: vecs[:2], K: 3, Probes: 2})
	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := client.Post(front.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tc := range []struct {
		name    string
		replies [2]string
	}{
		{"ids and distances differ", [2]string{
			`{"ids":[4,5,6],"distances":[0,1],"id_offset":0,"k":3,"scanned":3,"elapsed":"1µs"}`,
			`{"ids":[[4,5],[6]],"distances":[[0,1],[]],"id_offset":0,"k":3,"elapsed":"1µs"}`,
		}},
		{"no k", [2]string{
			`{"ids":[4],"distances":[0],"id_offset":0,"scanned":3,"elapsed":"1µs"}`,
			`{"ids":[[4],[5]],"distances":[[0],[0]],"id_offset":0,"elapsed":"1µs"}`,
		}},
		{"another k", [2]string{
			`{"ids":[4],"distances":[0],"id_offset":0,"k":1,"scanned":3,"elapsed":"1µs"}`,
			`{"ids":[[4],[5]],"distances":[[0],[0]],"id_offset":0,"k":1,"elapsed":"1µs"}`,
		}},
		{"another row count", [2]string{
			"", // a single search has one row
			`{"ids":[[4]],"distances":[[0]],"id_offset":0,"k":3,"elapsed":"1µs"}`,
		}},
	} {
		lie.Store(&tc.replies)
		if code := post("/search", search); tc.replies[0] != "" && code != http.StatusBadGateway {
			t.Fatalf("%s: /search over a lying shard: HTTP %d, want 502", tc.name, code)
		}
		if code := post("/search/batch", batch); code != http.StatusBadGateway {
			t.Fatalf("%s: /search/batch over a lying shard: HTTP %d, want 502", tc.name, code)
		}
		lie.Store(nil)
		if code := post("/search", search); code != http.StatusOK {
			t.Fatalf("%s: the same /search once the shard recovered: HTTP %d, want 200", tc.name, code)
		}
		if code := post("/search/batch", batch); code != http.StatusOK {
			t.Fatalf("%s: the same /search/batch once the shard recovered: HTTP %d, want 200", tc.name, code)
		}
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// flakyProxy forwards to target but fails the first n requests with 503.
type flakyProxy struct {
	mu     sync.Mutex
	fails  int
	target *httptest.Server
}

func (p *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	shouldFail := p.fails > 0
	if shouldFail {
		p.fails--
	}
	p.mu.Unlock()
	if shouldFail && r.URL.Path == "/search" {
		http.Error(w, "injected failure", http.StatusServiceUnavailable)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.target.URL+r.URL.Path, r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// TestRetryOnSiblingReplica: a 5xx from the primary replica is retried
// against the healthy sibling and succeeds transparently.
func TestRetryOnSiblingReplica(t *testing.T) {
	vecs := corpusRows(t, 109, 300, 8)
	ix := buildIndex(t, vecs)
	good := backendFor(t, ix)
	flaky := httptest.NewServer(&flakyProxy{fails: 1 << 20, target: good})
	defer flaky.Close()

	// One shard, two replicas: the flaky one always 503s /search.
	f, front := frontFor(t, Config{Shards: [][]string{{flaky.URL, good.URL}}})

	const n = 8
	ok := 0
	for i := 0; i < n; i++ {
		resp := postJSON(t, front.URL+"/search", serve.SearchRequest{Vector: vecs[i], K: 5, Probes: 2})
		if resp.StatusCode == http.StatusOK {
			r := decode[serve.SearchResponse](t, resp)
			if len(r.IDs) == 5 {
				ok++
			}
		} else {
			resp.Body.Close()
		}
	}
	if ok != n {
		t.Fatalf("only %d/%d searches succeeded despite a healthy sibling", ok, n)
	}
	if f.retries.Value() == 0 {
		t.Fatal("no retries recorded — the flaky replica was never hit")
	}
}

// TestAllReplicasDown: when every replica of a shard fails, the front
// answers 502 after the bounded retry, not a hang or a partial answer.
func TestAllReplicasDown(t *testing.T) {
	vecs := corpusRows(t, 113, 300, 8)
	live := buildIndex(t, vecs)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer dead.Close()

	_, front := frontFor(t, Config{Shards: [][]string{
		{backendFor(t, live).URL},
		{dead.URL},
	}})
	resp := postJSON(t, front.URL+"/search", serve.SearchRequest{Vector: vecs[0], K: 5})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("HTTP %d, want 502", resp.StatusCode)
	}
}

// TestClientGoneCancelsFanout: a client that leaves while its search waits on
// a backend cancels that backend request, on /search and /search/batch alike,
// and is charged to no backend — no backend error, no sibling retry — and the
// front answers 503.
func TestClientGoneCancelsFanout(t *testing.T) {
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/search", serve.SearchRequest{Vector: []float32{1, 2}, K: 1}},
		{"/search/batch", serve.BatchSearchRequest{Vectors: [][]float32{{1, 2}}, K: 1}},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/"), func(t *testing.T) {
			// Each replica reads the body, then waits 3 s or until its request
			// is cancelled, then answers 500.
			var arrivals, cancelled, ended atomic.Int64
			arrived := make(chan struct{}, 2)
			slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/healthz" {
					_ = json.NewEncoder(w).Encode(serve.HealthzResponse{Status: "ok", IndexLoaded: true})
					return
				}
				_, _ = io.Copy(io.Discard, r.Body)
				arrivals.Add(1)
				arrived <- struct{}{}
				select {
				case <-r.Context().Done():
					cancelled.Add(1)
				case <-time.After(3 * time.Second):
				}
				http.Error(w, "slow replica", http.StatusInternalServerError)
				ended.Add(1)
			})
			a, b := httptest.NewServer(slow), httptest.NewServer(slow)
			defer a.Close()
			defer b.Close()
			f, _ := frontFor(t, Config{Shards: [][]string{{a.URL, b.URL}}, Timeout: 10 * time.Second})

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req := httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(mustJSON(t, tc.body))).WithContext(ctx)
			rec := httptest.NewRecorder()
			served := make(chan struct{})
			go func() {
				defer close(served)
				f.Mux().ServeHTTP(rec, req)
			}()
			select {
			case <-arrived:
			case <-time.After(5 * time.Second):
				t.Fatal("the request never reached a backend")
			}
			cancel()
			<-served
			deadline := time.Now().Add(5 * time.Second)
			for ended.Load() < arrivals.Load() && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}

			if n, c := arrivals.Load(), cancelled.Load(); c != n {
				t.Errorf("%d of %d backend requests were cancelled", c, n)
			}
			for _, be := range f.groups[0].backends {
				if n := be.errs.Value(); n != 0 {
					t.Errorf("backend %s charged %d errors for a client that left", be.url, n)
				}
			}
			if n := f.retries.Value(); n != 0 {
				t.Errorf("%d retries for a client that left, want 0", n)
			}
			if n := f.fanout.Value(); n != 1 {
				t.Errorf("fanout %d, want 1", n)
			}
			if rec.Code != http.StatusServiceUnavailable {
				t.Errorf("HTTP %d, want 503: %s", rec.Code, rec.Body)
			}
		})
	}
}

// TestHealthExclusion: probing marks a dead backend unhealthy, the front
// reports degraded, and a later sweep restores it.
func TestHealthExclusion(t *testing.T) {
	vecs := corpusRows(t, 127, 300, 8)
	ix := buildIndex(t, vecs)
	good := backendFor(t, ix)

	var down sync.Mutex
	failing := false
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		down.Lock()
		f := failing
		down.Unlock()
		if f {
			http.Error(w, "dead", http.StatusInternalServerError)
			return
		}
		http.Redirect(w, r, good.URL+r.URL.Path, http.StatusTemporaryRedirect)
	}))
	defer proxy.Close()

	f, front := frontFor(t, Config{Shards: [][]string{{proxy.URL, good.URL}}})

	hz := decode[FrontHealthz](t, mustGet(t, front.URL+"/healthz"))
	if hz.Status != "ok" || hz.HealthyBackends != 2 {
		t.Fatalf("initial health %+v", hz)
	}

	down.Lock()
	failing = true
	down.Unlock()
	f.ProbeHealth(context.Background())
	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz = decode[FrontHealthz](t, resp)
	if hz.HealthyBackends != 1 {
		t.Fatalf("after failure: %+v, want 1 healthy", hz)
	}
	// Queries keep succeeding through the surviving sibling.
	sresp := postJSON(t, front.URL+"/search", serve.SearchRequest{Vector: vecs[0], K: 5, Probes: 2})
	r := decode[serve.SearchResponse](t, sresp)
	if len(r.IDs) != 5 {
		t.Fatalf("search degraded: %+v", r)
	}

	down.Lock()
	failing = false
	down.Unlock()
	f.ProbeHealth(context.Background())
	hz = decode[FrontHealthz](t, mustGet(t, front.URL+"/healthz"))
	if hz.Status != "ok" || hz.HealthyBackends != 2 {
		t.Fatalf("after recovery: %+v", hz)
	}
}

// TestBackpressure: with MaxInFlight 1 and a slow backend, concurrent
// requests are shed with 429 instead of queueing.
func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			_ = json.NewEncoder(w).Encode(serve.HealthzResponse{Status: "ok", IndexLoaded: true})
			return
		}
		<-release
		_ = json.NewEncoder(w).Encode(serve.SearchResponse{IDs: []int{0}, Distances: []float32{0}, K: 1})
	}))
	defer slow.Close()

	f, front := frontFor(t, Config{
		Shards: [][]string{{slow.URL}}, MaxInFlight: 1, Timeout: 10 * time.Second,
	})

	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		resp := postJSON(t, front.URL+"/search", serve.SearchRequest{Vector: []float32{1}, K: 1})
		resp.Body.Close()
	}()
	<-started
	// Wait until the in-flight slot is actually held.
	deadline := time.Now().Add(2 * time.Second)
	for len(f.sem) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	resp := postJSON(t, front.URL+"/search", serve.SearchRequest{Vector: []float32{1}, K: 1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429", resp.StatusCode)
	}
	if f.rejected.Value() == 0 {
		t.Fatal("front_rejected_total not incremented")
	}
	close(release)
	wg.Wait()
}

// barrier releases its callers n at a time, any number of times.
type barrier struct {
	mu      sync.Mutex
	n       int
	waiting int
	gate    chan struct{}
}

func newBarrier(n int) *barrier { return &barrier{n: n, gate: make(chan struct{})} }

func (b *barrier) wait() {
	b.mu.Lock()
	b.waiting++
	g := b.gate
	if b.waiting == b.n {
		b.waiting, b.gate = 0, make(chan struct{})
		close(g)
	}
	b.mu.Unlock()
	<-g
}

// TestDefaultClientReusesBackendConnections: a front built without
// Config.Client must keep one backend connection per in-flight request
// alive between requests. The stub backend answers only once all 16
// clients are inside it, so every wave needs 16 connections at once, and
// the clients start the next wave only when all have their answer, so all
// 16 connections are idle in between. net/http's default pool of two idle
// connections per host closes 14 of them there and dials 14 more for the
// next wave (86 over six waves); the sized pool dials each once. The bound
// leaves room for a connection handed back a moment after its client
// moved on.
func TestDefaultClientReusesBackendConnections(t *testing.T) {
	const clients, waves = 16, 6
	inBackend, betweenWaves := newBarrier(clients), newBarrier(clients)
	var dials atomic.Int64
	backend := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			_ = json.NewEncoder(w).Encode(serve.HealthzResponse{Status: "ok", IndexLoaded: true})
			return
		}
		_, _ = io.Copy(io.Discard, r.Body)
		inBackend.wait()
		_ = json.NewEncoder(w).Encode(serve.SearchResponse{IDs: []int{0}, Distances: []float32{0}, K: 1})
	}))
	backend.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	backend.Start()
	defer backend.Close()

	f, err := New(Config{Shards: [][]string{{backend.URL}}, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mux := f.Mux()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for wave := 0; wave < waves; wave++ {
				// A distinct vector per request, as distinct clients send.
				body, _ := json.Marshal(serve.SearchRequest{Vector: []float32{float32(c), float32(wave)}, K: 1})
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Errorf("client %d wave %d: HTTP %d: %s", c, wave, rec.Code, rec.Body)
				}
				betweenWaves.wait()
			}
		}(c)
	}
	wg.Wait()
	if n := dials.Load(); n > 2*clients {
		t.Fatalf("%d backend connections dialed for %d waves of %d concurrent searches, want at most %d", n, waves, clients, 2*clients)
	}
}

// TestFrontMetrics: the front's /metrics scrape carries the per-backend
// and fan-out series.
func TestFrontMetrics(t *testing.T) {
	vecs := corpusRows(t, 131, 300, 8)
	union := buildIndex(t, vecs)
	shards, err := union.Shard(2)
	if err != nil {
		t.Fatal(err)
	}
	b0, b1 := backendFor(t, shards[0]), backendFor(t, shards[1])
	_, front := frontFor(t, Config{Shards: [][]string{{b0.URL}, {b1.URL}}})

	resp := postJSON(t, front.URL+"/search", serve.SearchRequest{Vector: vecs[0], K: 5, Probes: 2})
	resp.Body.Close()

	mresp := mustGet(t, front.URL+"/metrics")
	defer mresp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, err := mresp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	body := sb.String()
	for _, series := range []string{
		"front_fanout_total 2",
		`front_backend_requests_total{backend="` + b0.URL + `"} 1`,
		`front_backend_requests_total{backend="` + b1.URL + `"} 1`,
		"front_healthy_backends 2",
		"front_rejected_total 0",
		"front_retries_total 0",
		`http_requests_total{endpoint="/search"} 1`,
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("series %q missing from scrape:\n%s", series, body)
		}
	}
}

func mustGet(t testing.TB, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return resp
}

// rawPost returns the status and the raw response bytes, so bodies can be
// compared byte for byte.
func rawPost(t testing.TB, url string, body any) (int, []byte) {
	t.Helper()
	resp := postJSON(t, url, body)
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestDeletesReachEveryFront: a /delete that reaches a backend without
// passing through this front — sent straight to it, as a second front or an
// operator would — hides the id from this front's answers at once, and
// still after a health probe: the front keeps no answers of its own to go
// stale.
func TestDeletesReachEveryFront(t *testing.T) {
	vecs := corpusRows(t, 139, 300, 8)
	ix := buildIndex(t, vecs)
	backend := backendFor(t, ix)
	f, front := frontFor(t, Config{Shards: [][]string{{backend.URL}}})

	req := serve.SearchRequest{Vector: vecs[0], K: 5, Probes: 2}
	answer := func(when string) []int {
		t.Helper()
		status, body := rawPost(t, front.URL+"/search", req)
		if status != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", when, status, body)
		}
		var out serve.SearchResponse
		if err := serve.DecodeSearchResponse(&out, body); err != nil {
			t.Fatal(err)
		}
		return out.IDs
	}
	if ids := answer("before the delete"); len(ids) == 0 || ids[0] != 0 {
		t.Fatalf("self query answered %v, want row 0 first", ids)
	}
	resp := postJSON(t, backend.URL+"/delete", serve.DeleteRequest{ID: 0})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete at the backend: HTTP %d", resp.StatusCode)
	}
	if ids := answer("after the delete"); slices.Contains(ids, 0) {
		t.Fatalf("front answered %v after id 0 was deleted", ids)
	}
	f.ProbeHealth(context.Background())
	if ids := answer("after a health probe"); slices.Contains(ids, 0) {
		t.Fatalf("front answered %v after id 0 was deleted and a probe ran", ids)
	}
}

func readBody(t testing.TB, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
