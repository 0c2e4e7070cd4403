// Package serve is the HTTP serving layer of one USP backend: the JSON
// k-NN endpoints of cmd/uspserve, shared by the fan-out front (which
// speaks the same wire types) and the in-process benchmarks.
//
// Request handling rides the lock-free query engine: every request
// resolves the current engine (index + pooled searchers) from one atomic
// load, so searches never contend with each other, with /add and /delete
// mutations, with the background compactor — or with /reload, which
// builds a complete replacement engine from a snapshot file and publishes
// it with a single pointer swap. In-flight requests keep the engine they
// resolved, so a rolling reload never fails or blocks a query.
//
// Validation is strict and classification is deliberate: malformed
// requests and invalid parameters are rejected with 400 before touching
// the engine, library validation errors (usp.ErrInvalid) map to 400,
// usp.ErrNotFound to 404, and everything else to 500 — so a fan-out front
// can retry 5xx against a sibling replica while never retrying a request
// that is itself broken.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	usp "repro"
	"repro/internal/telemetry"
)

// SearchRequest is the body of POST /search.
type SearchRequest struct {
	Vector []float32 `json:"vector"`
	// K is the number of neighbors to return; required, must be >= 1.
	K int `json:"k"`
	// Probes is m', the number of bins scanned; 0 uses the engine default
	// of 1, negative values are rejected.
	Probes int `json:"probes"`
	// RerankK is the quantized two-phase scan's exact re-rank depth
	// (ignored on float-only indexes): 0 uses the server default, -1
	// serves ADC-only distances, and any other negative is rejected.
	RerankK int `json:"rerank_k"`
}

// SearchResponse is the body of a successful /search reply. IDs are
// ordered by ascending distance (ties by ascending id) — the order the
// fan-out merge relies on. IDOffset is the serving index's global id
// base: a fan-out front adds it to each id, and because every response
// carries it (rather than the front caching it from health probes), the
// mapping can never go stale across a rolling reload. K is the request's
// k as this backend validated it, so the front merges to it without
// reading the request itself.
type SearchResponse struct {
	IDs       []int     `json:"ids"`
	Distances []float32 `json:"distances"`
	IDOffset  int       `json:"id_offset"`
	K         int       `json:"k"`
	Scanned   int       `json:"scanned"`
	Elapsed   string    `json:"elapsed"`
}

// BatchSearchRequest is the body of POST /search/batch; parameters carry
// the same semantics as SearchRequest.
type BatchSearchRequest struct {
	Vectors [][]float32 `json:"vectors"`
	K       int         `json:"k"`
	Probes  int         `json:"probes"`
	RerankK int         `json:"rerank_k"`
}

// BatchSearchResponse is the body of a successful /search/batch reply.
// IDOffset and K carry the same semantics as in SearchResponse.
type BatchSearchResponse struct {
	IDs       [][]int     `json:"ids"`
	Distances [][]float32 `json:"distances"`
	IDOffset  int         `json:"id_offset"`
	K         int         `json:"k"`
	Elapsed   string      `json:"elapsed"`
}

// AddRequest is the body of POST /add.
type AddRequest struct {
	Vector []float32 `json:"vector"`
}

// AddResponse returns the id assigned to the added vector. ID is local to
// this backend; IDOffset is the backend's global id base, so a routing
// front (or any client) computes the global id as ID + IDOffset without a
// separate health probe.
type AddResponse struct {
	ID       int `json:"id"`
	IDOffset int `json:"id_offset"`
}

// DeleteRequest is the body of POST /delete.
type DeleteRequest struct {
	ID int `json:"id"`
}

// DeleteResponse acknowledges a tombstoned vector.
type DeleteResponse struct {
	Deleted bool `json:"deleted"`
}

// SaveRequest names the snapshot file for POST /save, relative to the
// server's data directory.
type SaveRequest struct {
	Path string `json:"path"`
}

// SaveResponse reports where a snapshot landed.
type SaveResponse struct {
	Path    string `json:"path"`
	Bytes   int64  `json:"bytes"`
	Elapsed string `json:"elapsed"`
}

// ReloadRequest names the snapshot file for POST /reload, relative to the
// server's data directory.
type ReloadRequest struct {
	Path string `json:"path"`
}

// ReloadResponse reports the freshly published engine.
type ReloadResponse struct {
	Path       string `json:"path"`
	Vectors    int    `json:"vectors"`
	Dim        int    `json:"dim"`
	Generation uint64 `json:"generation"`
	Elapsed    string `json:"elapsed"`
}

// HealthzResponse is the body of GET /healthz. The fan-out front reads
// IDOffset to map this backend's local result ids into the global id
// space, Generation to observe rolling reloads, and Rows — the dataset
// row count including deleted rows, i.e. the next local id Add would
// assign — to judge whether this shard can grow without its global ids
// colliding with the next shard's range.
type HealthzResponse struct {
	Status          string  `json:"status"`
	IndexLoaded     bool    `json:"index_loaded"`
	Vectors         int     `json:"vectors"`
	Rows            int     `json:"rows"`
	Dim             int     `json:"dim"`
	IDOffset        int     `json:"id_offset"`
	Generation      uint64  `json:"generation"`
	Epoch           uint64  `json:"epoch"`
	EpochAgeSeconds float64 `json:"epoch_age_seconds"`
	UptimeSeconds   float64 `json:"uptime_seconds"`
}

// Config parameterizes a Server.
type Config struct {
	// DataDir confines /save and /reload: snapshot paths are resolved
	// relative to it and may not escape it, so HTTP clients can neither
	// overwrite nor load arbitrary files the process can reach.
	// Empty means the current directory.
	DataDir string
	// RerankK is the default exact re-rank depth applied to quantized
	// searches when the request leaves rerank_k unset (0 defers to the
	// engine default of 4·k, -1 serves ADC-only).
	RerankK int
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// BatchWindow enables the dynamic micro-batch scheduler for /search
	// when positive: concurrent requests are aggregated for up to this long
	// (order ~100–500µs) and executed as one staged SearchBatch. 0 disables
	// the scheduler entirely. A request with no concurrent company is
	// flushed immediately — it never waits the window — so enabling
	// batching leaves single-client latency essentially unchanged.
	BatchWindow time.Duration
	// BatchMax caps requests per micro-batch (0 = 64). The admission queue
	// holds 4×BatchMax requests; one arriving while it is full falls back
	// to direct execution rather than erroring.
	BatchMax int
}

// engine bundles an index with its searcher pool. It is published as a
// unit through one atomic pointer: handlers resolve it once per request,
// so a /reload swap never mixes an old index with new searchers (whose
// scratch buffers are index-shaped) or vice versa.
type engine struct {
	ix *usp.Index
	// searchers recycles query contexts across requests: each Searcher
	// owns the scratch buffers of one in-flight query, so steady-state
	// request handling does not allocate on the search path.
	searchers sync.Pool
}

func newEngine(ix *usp.Index) *engine {
	e := &engine{ix: ix}
	e.searchers.New = func() any { return ix.NewSearcher() }
	return e
}

// Server is one servable USP backend. Construct with New; serve Mux().
type Server struct {
	eng     atomic.Pointer[engine]
	cfg     Config
	gen     atomic.Uint64 // /reload count; 0 until the first swap
	reg     *telemetry.Registry
	started time.Time
	// batch is the /search micro-batch scheduler (nil when disabled);
	// inflight counts concurrent /search requests so the collector can
	// flush immediately once every in-flight request is already in the
	// batch (the latency-preserving fast flush).
	batch    *batcher
	inflight atomic.Int64
}

// New returns a Server serving ix under cfg. If cfg enables micro-batching,
// Close must be called to stop the scheduler goroutine.
func New(ix *usp.Index, cfg Config) *Server {
	if cfg.DataDir == "" {
		cfg.DataDir = "."
	}
	s := &Server{cfg: cfg, reg: telemetry.NewRegistry(), started: time.Now()}
	s.eng.Store(newEngine(ix))
	if cfg.BatchWindow > 0 {
		max := cfg.BatchMax
		if max <= 0 {
			max = 64
		}
		s.batch = newBatcher(s, max, cfg.BatchWindow)
	}
	return s
}

// Close stops the micro-batch scheduler, answering everything it already
// admitted. Call it after the HTTP server has drained; it is a no-op when
// batching is disabled, and idempotent.
func (s *Server) Close() {
	if s.batch != nil {
		s.batch.close()
	}
}

// Index returns the currently published index (it may change across calls
// while /reload traffic is in flight).
func (s *Server) Index() *usp.Index { return s.eng.Load().ix }

// Generation returns the number of completed /reload swaps.
func (s *Server) Generation() uint64 { return s.gen.Load() }

// Registry exposes the server's HTTP metrics registry.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Mux assembles the routing table: every application endpoint behind the
// per-endpoint metrics middleware, plus the observability endpoints
// (/metrics, /healthz, and optionally /debug/pprof/) which are served
// unwrapped so scrapes don't pollute the request metrics they read.
func (s *Server) Mux() *http.ServeMux {
	hm := telemetry.NewHTTPMetrics(s.reg)
	mux := http.NewServeMux()
	for path, h := range map[string]http.HandlerFunc{
		"/search":       s.handleSearch,
		"/search/batch": s.handleSearchBatch,
		"/add":          s.handleAdd,
		"/delete":       s.handleDelete,
		"/compact":      s.handleCompact,
		"/save":         s.handleSave,
		"/reload":       s.handleReload,
		"/stats":        s.handleStats,
	} {
		mux.HandleFunc(path, hm.Wrap(path, h))
	}
	// /metrics resolves the engine per scrape: after a reload it exposes
	// the new index's query and lifecycle series, not the retired one's.
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		telemetry.Handler(s.reg, s.eng.Load().ix.Telemetry()).ServeHTTP(w, r)
	})
	mux.HandleFunc("/healthz", s.handleHealthz)
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statusFor maps an engine error to its HTTP status: library validation
// failures are the caller's fault (400), unknown ids are 404, and
// anything else is a server-side 500 — the class a fan-out front may
// retry against a sibling replica.
func statusFor(err error) int {
	switch {
	case errors.Is(err, usp.ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, usp.ErrNotFound):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

// validateSearchParams enforces the request contract shared by /search
// and /search/batch: k is required (no silent defaulting — a client that
// sends k:0 almost certainly dropped the field, and quietly returning 10
// results hides that bug); probes may be omitted (0 = engine default of
// 1) but not negative; rerank_k admits exactly the meaningful values
// (0 = server default, -1 = ADC-only, positive = explicit depth).
func validateSearchParams(k, probes, rerankK int) error {
	if k < 1 {
		return fmt.Errorf("k must be >= 1 (got %d)", k)
	}
	if probes < 0 {
		return fmt.Errorf("probes must be >= 0 (got %d; 0 uses the default of 1)", probes)
	}
	if rerankK < -1 {
		return fmt.Errorf("rerank_k must be >= -1 (got %d; 0 uses the server default, -1 serves ADC-only)", rerankK)
	}
	return nil
}

// rerank resolves a request's rerank_k against the server default. Only
// 0 (unset) defers; -1 and positive depths pass through verbatim.
func (s *Server) rerank(requested int) int {
	if requested != 0 {
		return requested
	}
	return s.cfg.RerankK
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	sc := GetScratch()
	defer PutScratch(sc)
	var ok bool
	if sc.Body, ok = ReadRequest(w, r, sc.Body[:0]); !ok {
		return
	}
	req := &sc.Req
	if err := decodeSearchRequest(req, sc.Body); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := validateSearchParams(req.K, req.Probes, req.RerankK); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	start := time.Now()
	res, scanned, idOffset, err := s.searchOne(req.Vector, req.K, req.Probes, s.rerank(req.RerankK))
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	resp := &sc.Resp
	resp.Reset(len(res))
	resp.IDOffset, resp.K, resp.Scanned, resp.Elapsed = idOffset, req.K, scanned, time.Since(start).String()
	for _, n := range res {
		resp.IDs = append(resp.IDs, n.ID)
		resp.Distances = append(resp.Distances, n.Distance)
	}
	if err := sc.EncodeSearchReply(); err != nil {
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	WriteReply(w, sc.Out)
}

// searchOne executes one search through the micro-batching policy: with the
// scheduler enabled, every request enqueues and the collector decides how
// long to gather — a request with no concurrent company flushes immediately
// (two channel handoffs of added latency, never the window), while
// overlapping requests aggregate into staged SearchBatch executions. A
// request the scheduler cannot admit (queue full, shutting down) runs
// directly against a pooled Searcher. All paths return bit-identical
// results. rerankK must already be resolved against the server default.
func (s *Server) searchOne(vec []float32, k, probes, rerankK int) ([]usp.Result, int, int, error) {
	// Checked before admission: inside a collected batch one non-finite
	// vector would fail every request grouped with it.
	if err := usp.ValidateVector(vec); err != nil {
		return nil, 0, 0, err
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.batch != nil {
		if out, ok := s.batch.submit(vec, k, probes, rerankK); ok {
			if out.err != nil {
				return nil, 0, 0, out.err
			}
			return out.res, out.scanned, out.eng.ix.IDOffset(), nil
		}
	}
	eng := s.eng.Load()
	sr := eng.searchers.Get().(*usp.Searcher)
	defer eng.searchers.Put(sr)
	res, err := sr.Search(vec, k, usp.SearchOptions{Probes: probes, RerankK: rerankK})
	if err != nil {
		return nil, 0, 0, err
	}
	return res, sr.Scanned(), eng.ix.IDOffset(), nil
}

// Search answers one query through the same policy as POST /search —
// micro-batched under concurrency, direct when alone — without the HTTP and
// JSON layers. The in-process benchmarks use it to measure the scheduler's
// aggregation effect in isolation.
func (s *Server) Search(vec []float32, k, probes, rerankK int) ([]usp.Result, int, error) {
	res, scanned, _, err := s.searchOne(vec, k, probes, s.rerank(rerankK))
	return res, scanned, err
}

func (s *Server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	sc := GetScratch()
	defer PutScratch(sc)
	var ok bool
	if sc.Body, ok = ReadRequest(w, r, sc.Body[:0]); !ok {
		return
	}
	req := &sc.Batch
	if err := decodeBatchSearchRequest(req, sc.Body, &sc.In); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := validateSearchParams(req.K, req.Probes, req.RerankK); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	start := time.Now()
	eng := s.eng.Load()
	results, err := eng.ix.SearchBatch(req.Vectors, req.K, usp.SearchOptions{Probes: req.Probes, RerankK: s.rerank(req.RerankK)})
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	resp := &sc.BatchResp
	resp.Reset(&sc.Rows)
	resp.IDOffset, resp.K = eng.ix.IDOffset(), req.K
	for _, res := range results {
		ids, ds := resp.AddRow(&sc.Rows, len(res))
		for j, n := range res {
			ids[j], ds[j] = n.ID, n.Distance
		}
	}
	resp.Elapsed = time.Since(start).String()
	if err := sc.EncodeBatchReply(); err != nil {
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	WriteReply(w, sc.Out)
}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req AddRequest
	if !ReadJSON(w, r, &req) {
		return
	}
	// One engine for the id and its offset: a /reload between two loads
	// would pair an id minted by the old engine with the new one's offset.
	ix := s.eng.Load().ix
	id, err := ix.Add(req.Vector)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	writeJSON(w, AddResponse{ID: id, IDOffset: ix.IDOffset()})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req DeleteRequest
	if !ReadJSON(w, r, &req) {
		return
	}
	if err := s.eng.Load().ix.Delete(req.ID); err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	writeJSON(w, DeleteResponse{Deleted: true})
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	ix := s.eng.Load().ix
	ix.Compact()
	writeJSON(w, map[string]any{
		"elapsed":   time.Since(start).String(),
		"lifecycle": ix.Lifecycle(),
	})
}

// confine resolves a client-supplied snapshot path inside the data
// directory, rejecting absolute paths and any traversal out of it.
func (s *Server) confine(path string) (string, error) {
	rel := filepath.Clean(path)
	if filepath.IsAbs(rel) || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("path must stay inside the data directory")
	}
	return filepath.Join(s.cfg.DataDir, rel), nil
}

func (s *Server) handleSave(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req SaveRequest
	if !ReadJSON(w, r, &req) {
		return
	}
	if req.Path == "" {
		http.Error(w, "bad request: need {\"path\": ...}", http.StatusBadRequest)
		return
	}
	full, err := s.confine(req.Path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	start := time.Now()
	if err := s.eng.Load().ix.SaveFile(full); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	info, err := os.Stat(full)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, SaveResponse{
		Path: full, Bytes: info.Size(), Elapsed: time.Since(start).String(),
	})
}

// handleReload loads a snapshot from the data directory and publishes it
// as the serving engine in one atomic swap. Requests that resolved the
// previous engine finish against it undisturbed; the swap happens only
// after the new index loaded successfully, so a bad snapshot never
// degrades a serving backend.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req ReloadRequest
	if !ReadJSON(w, r, &req) {
		return
	}
	if req.Path == "" {
		http.Error(w, "bad request: need {\"path\": ...}", http.StatusBadRequest)
		return
	}
	full, err := s.confine(req.Path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	start := time.Now()
	ix, err := usp.LoadFile(full)
	if err != nil {
		status := http.StatusBadRequest
		if os.IsNotExist(err) {
			status = http.StatusNotFound
		}
		http.Error(w, "reload: "+err.Error(), status)
		return
	}
	s.eng.Store(newEngine(ix))
	gen := s.gen.Add(1)
	log.Printf("reloaded %s: %d vectors of dim %d (generation %d)", full, ix.Len(), ix.Dim(), gen)
	writeJSON(w, ReloadResponse{
		Path: full, Vectors: ix.Len(), Dim: ix.Dim(),
		Generation: gen, Elapsed: time.Since(start).String(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// One epoch per reply: vectors and lifecycle are read from one load.
	ix := s.eng.Load().ix
	st, lc := ix.Stats(), ix.Lifecycle()
	writeJSON(w, map[string]any{
		"vectors":   lc.Live,
		"dim":       ix.Dim(),
		"id_offset": ix.IDOffset(),
		"bins":      st.Bins,
		"models":    st.Models,
		"params":    st.Params,
		"lifecycle": lc,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// One epoch per reply: vectors, rows and epoch come from one load.
	ix := s.eng.Load().ix
	lc := ix.Lifecycle()
	writeJSON(w, HealthzResponse{
		Status:          "ok",
		IndexLoaded:     true,
		Vectors:         lc.Live,
		Rows:            lc.Rows,
		Dim:             ix.Dim(),
		IDOffset:        ix.IDOffset(),
		Generation:      s.gen.Load(),
		Epoch:           lc.Epoch,
		EpochAgeSeconds: ix.EpochAge().Seconds(),
		UptimeSeconds:   time.Since(s.started).Seconds(),
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("encoding response: %v", err)
	}
}
