package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	usp "repro"
	"repro/internal/frontier"
	"repro/internal/serve"
)

// tierShards is how many shards http_tier splits its index into.
const tierShards = 2

// tierWindow is the micro-batch window of every shard server.
const tierWindow = 100 * time.Microsecond

// requestTimeout bounds a request of the load generator and, in place of the
// front's default of 2 s, each of the front's backend calls: a host that
// stalls for seconds must show as latency, not as a failed run.
const requestTimeout = 10 * time.Second

// tier is the serving stack over one index: shard servers behind a front,
// each on its own loopback listener, all inside the benchmark process.
type tier struct {
	servers  []*serve.Server
	backends []*httptest.Server
	front    *frontier.Front
	frontSrv *httptest.Server
	client   *http.Client
	// frontClient carries the front's requests to the shard servers.
	frontClient *http.Client
}

// newTier splits ix into shards (one shard serves ix itself, unsplit), puts a
// batching server on each and a front with default settings — but for its
// backend connection pool (see newFrontClient) and requestTimeout — and no
// result cache over them. conns bounds the client's keep-alive connections.
func newTier(ix *usp.Index, shards, conns int, dataDir string) (*tier, error) {
	parts := []*usp.Index{ix}
	if shards > 1 {
		var err error
		if parts, err = ix.Shard(shards); err != nil {
			return nil, fmt.Errorf("sharding: %w", err)
		}
	}
	t := &tier{client: newClient(conns), frontClient: newFrontClient(conns)}
	var groups [][]string
	for _, p := range parts {
		srv := serve.New(p, serve.Config{DataDir: dataDir, BatchWindow: tierWindow})
		hs := httptest.NewServer(srv.Mux())
		t.servers = append(t.servers, srv)
		t.backends = append(t.backends, hs)
		groups = append(groups, []string{hs.URL})
	}
	front, err := frontier.New(frontier.Config{Shards: groups, Client: t.frontClient, Timeout: requestTimeout})
	if err != nil {
		t.close()
		return nil, fmt.Errorf("front: %w", err)
	}
	front.ProbeHealth(context.Background())
	t.front = front
	t.frontSrv = httptest.NewServer(front.Mux())
	return t, nil
}

// close shuts the listeners down and stops the batchers; it returns once
// every goroutine the tier started has ended.
func (t *tier) close() {
	t.client.CloseIdleConnections()
	t.frontClient.CloseIdleConnections()
	if t.frontSrv != nil {
		t.frontSrv.Close()
		t.front.Close()
	}
	for _, b := range t.backends {
		b.Close()
	}
	for _, s := range t.servers {
		s.Close()
	}
}

// newClient returns an HTTP client that keeps at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
			DisableCompression: true,
		},
	}
}

// newFrontClient returns the client the front reaches its backends with:
// net/http's default transport, with an idle pool sized to the requests the
// load generator can have in flight. The front's own default
// keeps net/http's two idle connections per backend; with more requests in
// flight than that — any machine with more than two CPUs — it dials and
// closes a connection for most backend calls, tens of thousands of sockets
// sit in TIME_WAIT within one run, the loopback port range runs out and
// requests start to fail. That is a deployment setting of the front, not
// something this workload is here to measure, so the pool follows the load.
func newFrontClient(conns int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0 // no limit across backends
	tr.MaxIdleConnsPerHost = max(2, 2*conns)
	return &http.Client{Transport: tr}
}

// nproc is the number of load-generating goroutines and connections a
// phase may use: never more than the CPUs the process has.
func nproc() int { return runtime.GOMAXPROCS(0) }

// searchBodies marshals one /search body per query ahead of time, so the
// generator's own JSON encoding stays out of the measured latency.
func searchBodies(queries [][]float32, opt usp.SearchOptions) ([][]byte, error) {
	out := make([][]byte, len(queries))
	for i, q := range queries {
		b, err := json.Marshal(serve.SearchRequest{Vector: q, K: topK, Probes: opt.Probes, RerankK: opt.RerankK})
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// batchBodies marshals /search/batch bodies of tierBatchQueries queries each.
func batchBodies(queries [][]float32, opt usp.SearchOptions) ([][]byte, error) {
	var out [][]byte
	for lo := 0; lo+tierBatchQueries <= len(queries); lo += tierBatchQueries {
		b, err := json.Marshal(serve.BatchSearchRequest{
			Vectors: queries[lo : lo+tierBatchQueries], K: topK, Probes: opt.Probes, RerankK: opt.RerankK,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// post sends body and returns the whole reply. buf is reused for the reply
// bytes; the caller decodes and checks them after stopping its clock.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}

// sameAsResponse reports whether an HTTP reply carries exactly the ids and
// distance bits of the in-process answer.
func sameAsResponse(want []usp.Result, ids []int, dists []float32) bool {
	if len(ids) != len(want) || len(dists) != len(want) {
		return false
	}
	for i, r := range want {
		if ids[i] != r.ID || dists[i] != r.Distance {
			return false
		}
	}
	return true
}

// checkSearchReply decodes a /search reply and compares it with want: every
// id and distance bit when exact, otherwise no rank farther than want's.
func checkSearchReply(reply []byte, want []usp.Result, exact bool) bool {
	var sr serve.SearchResponse
	if json.Unmarshal(reply, &sr) != nil {
		return false
	}
	if exact {
		return sameAsResponse(want, sr.IDs, sr.Distances)
	}
	if len(sr.IDs) != len(want) || len(sr.Distances) != len(want) {
		return false
	}
	for i, r := range want {
		if sr.Distances[i] > r.Distance {
			return false
		}
	}
	return true
}

// checkBatchReply decodes a /search/batch reply and compares each row.
func checkBatchReply(reply []byte, want [][]usp.Result) bool {
	var br serve.BatchSearchResponse
	if json.Unmarshal(reply, &br) != nil || len(br.IDs) != len(want) || len(br.Distances) != len(want) {
		return false
	}
	for i := range want {
		if !sameAsResponse(want[i], br.IDs[i], br.Distances[i]) {
			return false
		}
	}
	return true
}
