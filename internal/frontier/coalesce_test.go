package frontier

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// countProxy forwards to target, counting /search arrivals. When gated,
// every /search blocks until release closes; arrived signals the first
// one reaching the backend.
type countProxy struct {
	target   *httptest.Server
	searches atomic.Int64
	gated    bool
	arrived  chan struct{}
	release  chan struct{}
	once     sync.Once
}

func newCountProxy(target *httptest.Server, gated bool) *countProxy {
	return &countProxy{
		target: target, gated: gated,
		arrived: make(chan struct{}), release: make(chan struct{}),
	}
}

func (p *countProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/search" {
		p.searches.Add(1)
		p.once.Do(func() { close(p.arrived) })
		if p.gated {
			<-p.release
		}
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.target.URL+r.URL.Path, r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
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

// TestCoalescingSingleFanout pins the satellite criterion: identical
// concurrent queries produce exactly one backend fan-out and
// byte-identical answer bodies.
func TestCoalescingSingleFanout(t *testing.T) {
	vecs := corpusRows(t, 137, 300, 8)
	ix := buildIndex(t, vecs)
	proxy := newCountProxy(backendFor(t, ix), true)
	pts := httptest.NewServer(proxy)
	defer pts.Close()
	f, front := frontFor(t, Config{
		Shards: [][]string{{pts.URL}}, Timeout: 10 * time.Second,
	})

	req := serve.SearchRequest{Vector: vecs[0], K: 5, Probes: 2}
	const followers = 3
	type reply struct {
		status int
		body   []byte
	}
	replies := make(chan reply, followers+1)
	var wg sync.WaitGroup
	launch := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body := rawPost(t, front.URL+"/search", req)
			replies <- reply{status, body}
		}()
	}

	// Leader first; wait until it is parked inside the gated backend so
	// the followers below provably overlap it.
	launch()
	select {
	case <-proxy.arrived:
	case <-time.After(5 * time.Second):
		close(proxy.release)
		t.Fatal("leader request never reached the backend")
	}
	for i := 0; i < followers; i++ {
		launch()
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.coalesced.Value() < followers && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	joined := f.coalesced.Value()
	close(proxy.release)
	wg.Wait()
	close(replies)

	if joined < followers {
		t.Fatalf("only %d/%d followers coalesced onto the in-flight leader", joined, followers)
	}
	if n := proxy.searches.Load(); n != 1 {
		t.Fatalf("backend saw %d /search requests, want exactly 1", n)
	}
	var firstBody []byte
	for rep := range replies {
		if rep.status != http.StatusOK {
			t.Fatalf("HTTP %d: %s", rep.status, rep.body)
		}
		if firstBody == nil {
			firstBody = rep.body
			continue
		}
		if !bytes.Equal(rep.body, firstBody) {
			t.Fatalf("coalesced answers differ:\n%s\nvs\n%s", firstBody, rep.body)
		}
	}
	if firstBody == nil {
		t.Fatal("no replies collected")
	}
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
