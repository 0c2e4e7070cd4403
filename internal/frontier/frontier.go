// Package frontier is the stateless fan-out query front of the sharded
// serving tier: it spreads each search over N uspserve backends — full
// replicas or disjoint dataset shards — and merges the per-shard top-k
// into one answer.
//
// Topology is a list of shard groups, each holding sibling replica URLs
// that serve the same rows. A query fans out to one backend per group
// (round-robin over the healthy siblings), each shard's sorted top-k
// comes back with local ids, the front offsets them by the shard's
// id_offset (learned from /healthz) and runs the bounded (distance, id)
// merge from internal/vecmath — the same tie-break the engine's own TopK
// drain uses, so sharded answers are bit-identical to a single process
// searching the union dataset (see usp.Shard for the one quantized-mode
// exception).
//
// The front reads no request: it forwards each /search, /search/batch and
// /add body to the shards as the client sent it, and a shard's reply carries
// everything the merge needs — its id offset and the request's k. A body the
// shards refuse comes back with their 4xx status and message, unretried.
//
// The front holds no index state, so any number of fronts can serve the
// same backend fleet. Resilience is deliberate and minimal: per-request
// timeouts with context propagation, one bounded retry against a sibling
// replica on 5xx or transport failure (never on 4xx — a request the
// backend classified as the caller's fault stays failed), health checks
// that eject dead backends from rotation, and a concurrent-request limit
// that sheds excess load with 429 instead of queueing without bound.
//
// Every backend call runs under the client's own request context, on every
// endpoint: a client that leaves cancels its fan-out, takes no retry, and is
// not counted as a backend failure.
package frontier

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/vecmath"
)

// Config parameterizes a Front.
type Config struct {
	// Shards is the backend topology: one entry per disjoint shard, each
	// listing the base URLs ("http://host:port") of sibling replicas
	// serving that shard. A single-replica, single-shard front is a plain
	// reverse proxy: the backend judges every request.
	Shards [][]string
	// Timeout bounds each backend request, retries included separately
	// (default 2s).
	Timeout time.Duration
	// MaxInFlight caps concurrently handled front requests; excess
	// requests are rejected with 429 (default 256).
	MaxInFlight int
	// HealthInterval is the background health-probe period (default 2s).
	HealthInterval time.Duration
	// Client issues backend requests. The default keeps up to MaxInFlight
	// idle connections per backend, so that a front at its admission limit
	// still reuses every backend connection (net/http's own default of two
	// per host makes a busier front dial and close a socket per call).
	Client *http.Client
}

// backend is one uspserve process in the topology.
type backend struct {
	url     string
	healthy atomic.Bool
	// idOffset is the backend's global id base as last reported by
	// /healthz. Merging always uses the offset carried on each search
	// response (which cannot go stale); the probed value routes /delete.
	idOffset atomic.Int64
	// vectors is the backend's live row count as last probed, advanced
	// optimistically by routed adds; it drives least-rows add placement.
	vectors atomic.Int64
	// rows is the backend's dataset row count including deleted rows —
	// the next local id its Add would assign — as last probed, advanced
	// optimistically by routed adds; offset+rows is the next global id
	// this shard would mint, which gates add placement against id-range
	// collisions with the following shard.
	rows atomic.Int64

	reqs *telemetry.Counter
	errs *telemetry.Counter
	lat  *telemetry.Histogram
}

// group is the replica set of one shard; queries round-robin over its
// healthy members.
type group struct {
	backends []*backend
	next     atomic.Uint64
}

// pick returns the group's backends in preferred order: healthy members
// first (rotated round-robin), then unhealthy ones as a last resort —
// a front with every sibling marked down still tries rather than failing
// without a request.
func (g *group) pick(dst []*backend) []*backend {
	start := int(g.next.Add(1) - 1)
	n := len(g.backends)
	for i := 0; i < n; i++ {
		if b := g.backends[(start+i)%n]; b.healthy.Load() {
			dst = append(dst, b)
		}
	}
	for i := 0; i < n; i++ {
		if b := g.backends[(start+i)%n]; !b.healthy.Load() {
			dst = append(dst, b)
		}
	}
	return dst
}

// Front fans queries out over the configured shard groups.
type Front struct {
	cfg    Config
	groups []*group
	client *http.Client
	// transport is the default client's transport, nil when Config.Client
	// was supplied; Close releases its idle connections.
	transport *http.Transport
	sem       chan struct{}

	reg      *telemetry.Registry
	fanout   *telemetry.Counter
	retries  *telemetry.Counter
	rejected *telemetry.Counter

	stop chan struct{}
	wg   sync.WaitGroup
}

// New validates the topology and returns a Front. Call Start to begin
// background health probing (tests may drive ProbeHealth directly).
func New(cfg Config) (*Front, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("frontier: no shard groups configured")
	}
	for i, g := range cfg.Shards {
		if len(g) == 0 {
			return nil, fmt.Errorf("frontier: shard group %d has no backends", i)
		}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	f := &Front{
		cfg:    cfg,
		client: cfg.Client,
		sem:    make(chan struct{}, cfg.MaxInFlight),
		reg:    telemetry.NewRegistry(),
		stop:   make(chan struct{}),
	}
	if f.client == nil {
		f.transport = http.DefaultTransport.(*http.Transport).Clone()
		f.transport.MaxIdleConnsPerHost = cfg.MaxInFlight
		f.transport.MaxIdleConns = 0 // the per-host cap is the bound
		f.client = &http.Client{Transport: f.transport}
	}
	f.fanout = f.reg.Counter("front_fanout_total", "",
		"Backend requests fanned out, across all shard groups.")
	f.retries = f.reg.Counter("front_retries_total", "",
		"Backend requests retried against a sibling replica after a 5xx or transport failure.")
	f.rejected = f.reg.Counter("front_rejected_total", "",
		"Front requests shed with 429 because the in-flight limit was reached.")
	healthy := 0
	for _, urls := range cfg.Shards {
		g := &group{}
		for _, u := range urls {
			labels := `backend="` + u + `"`
			b := &backend{
				url:  u,
				reqs: f.reg.Counter("front_backend_requests_total", labels, "Requests sent to this backend."),
				errs: f.reg.Counter("front_backend_errors_total", labels, "Requests to this backend that failed (transport error or status >= 500)."),
				lat:  f.reg.Histogram("front_backend_latency_seconds", labels, "Backend round-trip latency.", telemetry.NanosToSeconds),
			}
			// Optimistically in rotation until the first probe says otherwise.
			b.healthy.Store(true)
			g.backends = append(g.backends, b)
			healthy++
		}
		f.groups = append(f.groups, g)
	}
	f.reg.GaugeFunc("front_healthy_backends", "",
		"Backends currently passing health checks.", func() float64 {
			n := 0
			for _, g := range f.groups {
				for _, b := range g.backends {
					if b.healthy.Load() {
						n++
					}
				}
			}
			return float64(n)
		})
	return f, nil
}

// Start launches the background health loop; Close stops it.
func (f *Front) Start() {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		t := time.NewTicker(f.cfg.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-f.stop:
				return
			case <-t.C:
				f.ProbeHealth(context.Background())
			}
		}
	}()
}

// Close stops the health loop and drops the default client's idle backend
// connections.
func (f *Front) Close() {
	close(f.stop)
	f.wg.Wait()
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
}

// ProbeHealth sweeps every backend's /healthz once, updating rotation
// state and id offsets. Siblings are probed concurrently; the sweep
// returns when all probes finish.
func (f *Front) ProbeHealth(ctx context.Context) {
	var wg sync.WaitGroup
	for _, g := range f.groups {
		for _, b := range g.backends {
			wg.Add(1)
			go func(b *backend) {
				defer wg.Done()
				hctx, cancel := context.WithTimeout(ctx, f.cfg.Timeout)
				defer cancel()
				req, err := http.NewRequestWithContext(hctx, http.MethodGet, b.url+"/healthz", nil)
				if err != nil {
					b.healthy.Store(false)
					return
				}
				resp, err := f.client.Do(req)
				if err != nil {
					b.healthy.Store(false)
					return
				}
				defer resp.Body.Close()
				var hz serve.HealthzResponse
				if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&hz) != nil || !hz.IndexLoaded {
					b.healthy.Store(false)
					return
				}
				b.idOffset.Store(int64(hz.IDOffset))
				b.vectors.Store(int64(hz.Vectors))
				b.rows.Store(int64(hz.Rows))
				b.healthy.Store(true)
			}(b)
		}
	}
	wg.Wait()
}

// Mux assembles the front's routing table: the fan-out query endpoints
// behind per-endpoint metrics, plus /healthz and /metrics.
func (f *Front) Mux() *http.ServeMux {
	hm := telemetry.NewHTTPMetrics(f.reg)
	mux := http.NewServeMux()
	mux.HandleFunc("/search", hm.Wrap("/search", f.handleSearch))
	mux.HandleFunc("/search/batch", hm.Wrap("/search/batch", f.handleSearchBatch))
	mux.HandleFunc("/add", hm.Wrap("/add", f.handleAdd))
	mux.HandleFunc("/delete", hm.Wrap("/delete", f.handleDelete))
	mux.HandleFunc("/healthz", f.handleHealthz)
	mux.Handle("/metrics", telemetry.Handler(f.reg))
	return mux
}

// httpError is a backend reply with status >= 400: the status decides
// whether the request may be retried on a sibling.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// callBackend POSTs body to one backend and returns the bytes of its 200
// reply, read into buf. A call that ctx ended is not the backend's failure.
func (f *Front) callBackend(ctx context.Context, b *backend, path string, body, buf []byte) ([]byte, error) {
	cctx, cancel := context.WithTimeout(ctx, f.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, b.url+path, bytes.NewReader(body))
	if err != nil {
		return buf, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	b.reqs.Inc()
	f.fanout.Inc()
	resp, err := f.client.Do(req)
	b.lat.ObserveDuration(time.Since(start))
	if err != nil {
		if ctx.Err() == nil {
			b.errs.Inc()
		}
		return buf, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		if resp.StatusCode >= 500 && ctx.Err() == nil {
			b.errs.Inc()
		}
		return buf, &httpError{status: resp.StatusCode, body: string(bytes.TrimSpace(msg))}
	}
	return serve.ReadBody(buf[:0], resp.Body, resp.ContentLength)
}

// askGroup sends one shard's search, single or batch, and decodes the reply
// into reply with decode, retrying once against the next sibling replica
// when an attempt fails with a transport error, a 5xx or a reply that does
// not decode. 4xx replies are returned immediately: the backend judged the
// request itself invalid, and a sibling would only repeat the verdict. Once
// ctx is done it returns ctx.Err() at once: a client that left gets no retry.
// The id offset used for merging comes from the response body itself
// (SearchResponse.IDOffset), never from cached health-probe state, so a
// backend that reloads to a different shard mid-flight cannot skew ids.
func (f *Front) askGroup(ctx context.Context, g *group, path string, body []byte, reply *serve.Scratch, decode func(*serve.Scratch) error) error {
	var order [4]*backend
	candidates := g.pick(order[:0])
	var lastErr error
	for attempt, b := range candidates {
		if attempt >= 2 { // bounded: primary + one sibling retry
			break
		}
		if attempt > 0 {
			f.retries.Inc()
		}
		var err error
		if reply.Body, err = f.callBackend(ctx, b, path, body, reply.Body); err == nil {
			err = decode(reply)
		}
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var he *httpError
		if errors.As(err, &he) && he.status < 500 {
			return err // caller's fault; do not retry
		}
		lastErr = err
	}
	return lastErr
}

// writeFanoutError classifies a fan-out failure for the client: backend
// 4xx verdicts pass through verbatim, a client that left is 503, deadline
// expiry is 504, and any other backend failure surfaces as 502.
func writeFanoutError(w http.ResponseWriter, err error) {
	var he *httpError
	switch {
	case errors.As(err, &he) && he.status < 500:
		http.Error(w, he.body, he.status)
	case errors.Is(err, context.Canceled):
		http.Error(w, "client gone: "+err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "backend timeout: "+err.Error(), http.StatusGatewayTimeout)
	default:
		http.Error(w, "backend failure: "+err.Error(), http.StatusBadGateway)
	}
}

// acquire takes an in-flight slot, or sheds the request with 429.
func (f *Front) acquire(w http.ResponseWriter) bool {
	select {
	case f.sem <- struct{}{}:
		return true
	default:
		f.rejected.Inc()
		http.Error(w, "too many in-flight requests", http.StatusTooManyRequests)
		return false
	}
}

func (f *Front) release() { <-f.sem }

// fanScratch is the pooled memory of one fan-out beyond the request's own
// serve.Scratch: a reply scratch and an outcome per shard group, and the
// neighbor lists of one merge, resliced out of one flat array.
type fanScratch struct {
	replies []*serve.Scratch
	errs    []error
	flat    []vecmath.Neighbor
	lists   [][]vecmath.Neighbor
	merged  []vecmath.Neighbor
}

var fanPool = sync.Pool{New: func() any { return new(fanScratch) }}

// getFan returns a fanScratch holding one reply scratch per group.
func getFan(groups int) *fanScratch {
	fs := fanPool.Get().(*fanScratch)
	fs.replies, fs.errs, fs.flat, fs.lists = fs.replies[:0], fs.errs[:0], fs.flat[:0], fs.lists[:0]
	for i := 0; i < groups; i++ {
		fs.replies = append(fs.replies, serve.GetScratch())
		fs.errs = append(fs.errs, nil)
	}
	return fs
}

// putFan hands the reply scratches back and pools fs, unless a huge k grew
// its neighbor arrays past a megabyte.
func putFan(fs *fanScratch) {
	for i, sc := range fs.replies {
		serve.PutScratch(sc)
		fs.replies[i] = nil
	}
	if cap(fs.flat)+cap(fs.merged) <= (1<<20)/16 {
		fanPool.Put(fs)
	}
}

// ask sends body to every shard group at once and waits for all of them;
// afterwards fs.replies[gi] holds group gi's decoded reply, or fs.errs[gi]
// why there is none. The first group is asked on the caller's goroutine,
// whose stack has long grown to what a backend call needs; every other group
// pays for a goroutine that has to grow its own.
func (f *Front) ask(ctx context.Context, fs *fanScratch, path string, body []byte, decode func(*serve.Scratch) error) {
	var wg sync.WaitGroup
	for gi, g := range f.groups[1:] {
		wg.Add(1)
		go func(gi int, g *group) {
			defer wg.Done()
			fs.errs[gi] = f.askGroup(ctx, g, path, body, fs.replies[gi], decode)
		}(gi+1, g)
	}
	fs.errs[0] = f.askGroup(ctx, f.groups[0], path, body, fs.replies[0], decode)
	wg.Wait()
}

// addList queues one shard's sorted answer, its ids shifted by the shard's
// offset, for the next merge. A list keeps pointing at the memory it was
// written to, so it stays intact if a later one makes fs.flat grow and move.
func (fs *fanScratch) addList(offset int, ids []int, ds []float32) {
	start := len(fs.flat)
	for i, id := range ids {
		fs.flat = append(fs.flat, vecmath.Neighbor{Index: offset + id, Dist: ds[i]})
	}
	fs.lists = append(fs.lists, fs.flat[start:len(fs.flat):len(fs.flat)])
}

// merge returns the global top k of the lists queued since the last merge;
// the result is valid until the next one.
func (fs *fanScratch) merge(k int) []vecmath.Neighbor {
	fs.merged = vecmath.MergeSortedNeighbors(fs.merged[:0], k, fs.lists...)
	fs.flat, fs.lists = fs.flat[:0], fs.lists[:0]
	return fs.merged
}

// agree checks one shard's reply, k over rows rows, against those before it
// (wantK is 0 for the first): a merge needs one k ≥ 1 over one row count.
func agree(k, rows, wantK, wantRows int) error {
	if k < 1 {
		return fmt.Errorf("shard reply carries k %d", k)
	}
	if wantK != 0 && (k != wantK || rows != wantRows) {
		return fmt.Errorf("shard replies disagree: k %d over %d rows, then k %d over %d rows", wantK, wantRows, k, rows)
	}
	return nil
}

// handleSearch forwards the client's /search body unread to every shard group
// and merges the replies to the k they agree on.
func (f *Front) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !f.acquire(w) {
		return
	}
	defer f.release()
	// The body gets memory of its own, not the pooled scratch: it is handed
	// on to the shards as it is, and net/http's transport can still be
	// sending it to a shard that answered without reading its request
	// through after this handler has returned.
	body, ok := serve.ReadRequest(w, r, nil)
	if !ok {
		return
	}
	start := time.Now()
	fs := getFan(len(f.groups))
	defer putFan(fs)
	f.ask(r.Context(), fs, "/search", body, (*serve.Scratch).DecodeSearchReply)

	k, scanned := 0, 0
	for gi, err := range fs.errs {
		a := &fs.replies[gi].Resp
		if err == nil {
			err = agree(a.K, 1, k, 1)
		}
		if err != nil {
			writeFanoutError(w, err)
			return
		}
		k, scanned = a.K, scanned+a.Scanned
		fs.addList(a.IDOffset, a.IDs, a.Distances)
	}
	merged := fs.merge(k)
	sc := serve.GetScratch()
	defer serve.PutScratch(sc)
	resp := &sc.Resp
	resp.Reset(len(merged))
	resp.K, resp.Scanned, resp.Elapsed = k, scanned, time.Since(start).String()
	for _, n := range merged {
		resp.IDs = append(resp.IDs, n.Index)
		resp.Distances = append(resp.Distances, n.Dist)
	}
	if err := sc.EncodeSearchReply(); err != nil {
		writeFanoutError(w, err)
		return
	}
	serve.WriteReply(w, sc.Out)
}

// handleSearchBatch is handleSearch for /search/batch, row by row.
func (f *Front) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !f.acquire(w) {
		return
	}
	defer f.release()
	body, ok := serve.ReadRequest(w, r, nil) // unpooled, as in handleSearch
	if !ok {
		return
	}
	start := time.Now()
	fs := getFan(len(f.groups))
	defer putFan(fs)
	f.ask(r.Context(), fs, "/search/batch", body, (*serve.Scratch).DecodeBatchReply)

	k, nq := 0, 0
	for gi, err := range fs.errs {
		a := &fs.replies[gi].BatchResp
		if err == nil {
			err = agree(a.K, len(a.IDs), k, nq)
		}
		if err != nil {
			writeFanoutError(w, err)
			return
		}
		k, nq = a.K, len(a.IDs)
	}
	sc := serve.GetScratch()
	defer serve.PutScratch(sc)
	resp := &sc.BatchResp
	resp.Reset(&sc.Rows)
	for qi := 0; qi < nq; qi++ {
		for _, reply := range fs.replies {
			a := &reply.BatchResp
			fs.addList(a.IDOffset, a.IDs[qi], a.Distances[qi])
		}
		merged := fs.merge(k)
		ids, ds := resp.AddRow(&sc.Rows, len(merged))
		for i, n := range merged {
			ids[i], ds[i] = n.Index, n.Dist
		}
	}
	resp.K, resp.Elapsed = k, time.Since(start).String()
	if err := sc.EncodeBatchReply(); err != nil {
		writeFanoutError(w, err)
		return
	}
	serve.WriteReply(w, sc.Out)
}

// FrontHealthz is the body of the front's GET /healthz.
type FrontHealthz struct {
	Status          string `json:"status"`
	Shards          int    `json:"shards"`
	Backends        int    `json:"backends"`
	HealthyBackends int    `json:"healthy_backends"`
	// Degraded lists shard groups with zero healthy members; queries
	// covering them are expected to fail until a replica recovers.
	Degraded []int `json:"degraded_shards,omitempty"`
}

func (f *Front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	hz := FrontHealthz{Status: "ok", Shards: len(f.groups)}
	for gi, g := range f.groups {
		live := 0
		for _, b := range g.backends {
			hz.Backends++
			if b.healthy.Load() {
				live++
				hz.HealthyBackends++
			}
		}
		if live == 0 {
			hz.Degraded = append(hz.Degraded, gi)
		}
	}
	if len(hz.Degraded) > 0 {
		hz.Status = "degraded"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, hz)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
