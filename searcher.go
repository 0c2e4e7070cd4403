package usp

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/knn"
	"repro/internal/par"
	"repro/internal/vecmath"
)

// Searcher is a reusable query context over an Index: it owns every scratch
// buffer the online phase needs (model forward-pass buffers, candidate list,
// top-k selector, result staging), so repeated queries allocate nothing
// steady-state beyond the returned result slice. A Searcher is NOT safe for
// concurrent use — give each goroutine its own (NewSearcher is cheap, and the
// Index keeps an internal pool for the convenience entry points). Concurrent
// Searchers over one Index are safe, including concurrently with Add,
// Delete, and compaction: every query resolves the atomically published
// epoch once and runs lock-free against that immutable snapshot.
type Searcher struct {
	ix    *Index
	qs    core.QueryScratch
	cands []int32
	tk    *vecmath.TopK
	nbrs  []vecmath.Neighbor
	// skipped is the tombstone-filter drop count of the most recent query.
	skipped int
	// routeBins stages Add's per-member routing decisions (Index.Add
	// borrows a pooled Searcher for its pre-lock forward passes).
	routeBins []int
	// Quantized-path scratch: the flat ADC lookup tables of the queries
	// being answered (one per staged row), the ADC pass's top-depth
	// survivors, their id list handed to the exact re-rank, and Add's
	// staged row code.
	luts      []float32
	adc       []vecmath.Neighbor
	survivors []int32
	codeBuf   []uint8
}

// NewSearcher returns a fresh query context for the index. Buffers grow on
// first use and are retained across queries.
func (ix *Index) NewSearcher() *Searcher {
	return &Searcher{ix: ix, tk: vecmath.NewTopK(1)}
}

// queryPlan is a request's options resolved against one epoch — what every
// query of a call shares, worked out once per call (or staged chunk).
type queryPlan struct {
	probes int
	// k is the requested k clamped to the epoch's row count: a top-k over
	// at most N rows cannot hold more than N, so every answer for k ≤ N is
	// unchanged while no buffer is sized from an unbounded request field.
	k int
	// rerank is the number of ADC survivors the exact re-rank re-scores
	// (clamped like k), or 0 when the scan's own top-k is the answer: a
	// float-only epoch, RerankK < 0, or memory-tight mode (no float rows).
	rerank int
	// binsProbed is the number of partition bins the query scans:
	// min(probes, bins) bins of its one selected member.
	binsProbed uint64
}

func (ix *Index) plan(ep *epoch, k int, opt SearchOptions) queryPlan {
	// No index this package builds is empty, but a loaded file can be; the
	// selectors need k ≥ 1 even then.
	rows := max(ep.data.N, 1)
	p := queryPlan{probes: max(opt.Probes, 1), k: min(k, rows)}
	p.binsProbed = uint64(min(p.probes, ep.router.Parts[0].M))
	if qv := ep.quant; qv != nil && !qv.tight && opt.RerankK >= 0 {
		p.rerank = opt.RerankK
		if p.rerank == 0 {
			p.rerank = 4 * p.k
		}
		p.rerank = min(max(p.rerank, p.k), rows)
	}
	return p
}

// The stages of a query. SearchInto and searchChunk run route and lut once
// for their one query or staged chunk, then answer per query, which runs
// gather, scan and rerank. All scratch lives on s, so steady-state no stage
// allocates.

// route fills the scratch's probability rows for queries. One query takes
// the single-row forward pass; more are staged into one matrix, which a
// flat member routes in one batched pass. A tree runs, for each query, only
// the models its probes most probable leaves need. The probed leaves hold
// the same bits either way.
func (s *Searcher) route(ep *epoch, queries [][]float32, probes int) {
	if len(queries) == 1 {
		ep.router.Route(&s.qs, queries[0], probes)
		return
	}
	dim := s.ix.dim
	buf := s.qs.Stage(len(queries), dim)
	for i, q := range queries {
		copy(buf[i*dim:(i+1)*dim], q)
	}
	ep.router.RouteBatch(&s.qs, probes)
}

// lut builds the queries' ADC lookup tables back to back into s.luts — on
// a quantized epoch; a float-only one needs none — and returns the stride
// from one query's table to the next.
func (s *Searcher) lut(ep *epoch, queries [][]float32) int {
	qv := ep.quant
	if qv == nil {
		return 0
	}
	s.luts = qv.pq.AppendLUTBatch(s.luts[:0], queries)
	return qv.pq.Subspaces * qv.pq.K
}

// gather fills s.cands with routed row i's candidate set: the ids of each
// probed bin of the row's selected member, in the bin's order. The list may
// still contain tombstoned ids — the scan filters them, so gathering stays
// branch-free.
func (s *Searcher) gather(ep *epoch, i, probes int) {
	s.cands = ep.router.AppendCandidatesRow(s.cands[:0], i, probes, &s.qs)
}

// scan scores the gathered candidates, dropping tombstoned ones (counted in
// s.skipped). A float-only epoch scans the float rows into s.nbrs. A
// quantized one scores every candidate from its PQ code via the query's
// table (asymmetric distance — approximate, monotone in the true distance
// only up to quantization error), keeping the plan's k best in s.nbrs, or
// its rerank best in s.adc when an exact re-rank follows.
func (s *Searcher) scan(ep *epoch, p *queryPlan, q, lut []float32) {
	qv := ep.quant
	switch {
	case qv == nil:
		s.nbrs, s.skipped = knn.SearchSubsetIntoCounted(s.nbrs[:0], ep.data, s.cands, q, p.k, s.tk, ep.tombs)
	case p.rerank == 0:
		s.nbrs, s.skipped = knn.SearchSubsetADCIntoCounted(s.nbrs[:0], qv.codes, qv.pq.Subspaces, qv.pq.K, lut, s.cands, p.k, s.tk, ep.tombs)
	default:
		s.adc, s.skipped = knn.SearchSubsetADCIntoCounted(s.adc[:0], qv.codes, qv.pq.Subspaces, qv.pq.K, lut, s.cands, p.rerank, s.tk, ep.tombs)
	}
}

// rerank exactly re-scores the ADC survivors from the float rows, keeping
// the k best in s.nbrs, and returns how many it re-scored.
func (s *Searcher) rerank(ep *epoch, q []float32, k int) int {
	s.survivors = s.survivors[:0]
	for _, nb := range s.adc {
		s.survivors = append(s.survivors, int32(nb.Index))
	}
	// Tombstones were already filtered by the scan, so the exact pass
	// passes skip=nil and cannot double-count.
	s.nbrs = knn.SearchSubsetInto(s.nbrs[:0], ep.data, s.survivors, q, k, s.tk, nil)
	return len(s.survivors)
}

// answer is the per-query body: everything after "row i's probabilities
// are in the scratch". It appends q's results to dst and counts the query.
func (s *Searcher) answer(dst []Result, ep *epoch, p *queryPlan, i int, q, lut []float32) []Result {
	s.gather(ep, i, p.probes)
	s.scan(ep, p, q, lut)
	reranked := 0
	if p.rerank > 0 {
		reranked = s.rerank(ep, q, p.k)
	}
	for _, n := range s.nbrs {
		dst = append(dst, Result{ID: n.Index, Distance: n.Dist})
	}
	// A query's telemetry is a handful of uncontended atomic adds —
	// allocation-free, so the engine's 0 allocs/op steady state survives
	// instrumentation (benchmark-asserted in CI).
	m := s.ix.tel
	m.queries.Inc()
	m.candidates.Add(uint64(len(s.cands)))
	m.binsProbed.Add(p.binsProbed)
	m.routeModels.Add(uint64(s.qs.RoutedModels(i)))
	m.tombstonesSkipped.Add(uint64(s.skipped))
	if ep.quant != nil {
		m.adcQueries.Inc()
		m.rerankCandidates.Add(uint64(reranked))
	}
	return dst
}

// Search returns the k approximate nearest neighbors of q. Steady-state it
// performs a single allocation: the returned result slice. Use SearchInto
// with a recycled slice to eliminate that too.
func (s *Searcher) Search(q []float32, k int, opt SearchOptions) ([]Result, error) {
	return s.SearchInto(nil, q, k, opt)
}

// SearchInto appends the k approximate nearest neighbors of q to dst (a nil
// dst is allocated at its final size) and returns it. With a recycled dst
// it allocates nothing steady-state. The query runs entirely against one
// epoch snapshot: it never blocks on writers and observes either all or
// none of any concurrent mutation.
func (s *Searcher) SearchInto(dst []Result, q []float32, k int, opt SearchOptions) ([]Result, error) {
	ix := s.ix
	if k <= 0 {
		ix.tel.queryErrors.Inc()
		return nil, fmt.Errorf("%w: k must be positive", ErrInvalid)
	}
	if len(q) != ix.dim {
		ix.tel.queryErrors.Inc()
		return nil, fmt.Errorf("%w: query dim %d, index dim %d", ErrInvalid, len(q), ix.dim)
	}
	if err := ValidateVector(q); err != nil {
		ix.tel.queryErrors.Inc()
		return nil, err
	}
	start := time.Now()
	ep := ix.live.Load()
	p := ix.plan(ep, k, opt)
	if dst == nil {
		dst = make([]Result, 0, p.k)
	}
	queries := [][]float32{q}
	s.route(ep, queries, p.probes)
	s.lut(ep, queries)
	dst = s.answer(dst, ep, &p, 0, q, s.luts)
	ix.tel.queryLatency.ObserveDuration(time.Since(start))
	return dst, nil
}

// Scanned reports the size of the candidate set |C(q)| of the most recent
// query — the computational-cost metric of the paper's figures — without
// re-deriving it. Tombstoned candidates count: they were gathered and
// skipped by the scan, which is exactly the work performed.
func (s *Searcher) Scanned() int { return len(s.cands) }

// Skipped reports how many of the most recent query's candidates the
// tombstone filter dropped — wasted gather work that compaction reclaims.
func (s *Searcher) Skipped() int { return s.skipped }

// getSearcher takes a pooled Searcher (the pool's zero value works: misses
// construct a fresh one).
func (ix *Index) getSearcher() *Searcher {
	if v := ix.searchers.Get(); v != nil {
		return v.(*Searcher)
	}
	return ix.NewSearcher()
}

func (ix *Index) putSearcher(s *Searcher) { ix.searchers.Put(s) }

// Batched-pipeline staging sizes. The forward chunk bounds the staged query
// matrix and per-member probability matrices; the quantized chunk is smaller
// because each staged query additionally owns a Subspaces×K ADC table in the
// worker's LUT arena.
const (
	batchForwardChunk = 256
	batchQuantChunk   = 32
)

// SearchBatch answers many queries in one call as a staged pipeline: the
// batch fans out over the worker pool, and each worker processes its span in
// staged chunks — one batched routing forward pass for the whole chunk (on
// the quantized path, one batched ADC-table build), then a per-query
// candidate gather + scan through the worker's pooled scratch. Results align
// with queries by position and are bit-identical to looped single Search
// calls: batch and single-row inference run one eval loop (pinned by
// TestSearchBatchBitIdentical).
//
// It is safe to call concurrently with Search, Add, Delete, and compaction;
// each staged chunk resolves one epoch snapshot, so a chunk observes either
// all or none of any concurrent mutation.
func (ix *Index) SearchBatch(queries [][]float32, k int, opt SearchOptions) ([][]Result, error) {
	return ix.searchBatch(queries, k, opt, nil)
}

// SearchBatchScanned is SearchBatch plus each query's candidate-set size
// |C(q)| (the per-query Searcher.Scanned value), which the serving tier
// reports per response.
func (ix *Index) SearchBatchScanned(queries [][]float32, k int, opt SearchOptions) ([][]Result, []int, error) {
	scanned := make([]int, len(queries))
	out, err := ix.searchBatch(queries, k, opt, scanned)
	if err != nil {
		return nil, nil, err
	}
	return out, scanned, nil
}

func (ix *Index) searchBatch(queries [][]float32, k int, opt SearchOptions, scanned []int) ([][]Result, error) {
	if err := ix.validateBatch(queries, k); err != nil {
		ix.tel.queryErrors.Inc() // one per rejected call, as SearchInto counts
		return nil, err
	}
	out := make([][]Result, len(queries))
	par.ForChunksMin(len(queries), 1, func(lo, hi int) {
		s := ix.getSearcher()
		defer ix.putSearcher(s)
		// One flat result arena per worker, resliced into the output rows:
		// each query appends at most min(k, rows) results, so the arena
		// regrows only if an Add races the batch while k exceeds the row
		// count, and the batch path performs no per-query allocation.
		arena := make([]Result, 0, (hi-lo)*min(k, ix.live.Load().data.N))
		for clo := lo; clo < hi; {
			ep := s.ix.live.Load()
			step := batchForwardChunk
			if ep.quant != nil {
				step = batchQuantChunk
			}
			chi := clo + step
			if chi > hi {
				chi = hi
			}
			arena = s.searchChunk(ep, queries[clo:chi], k, opt, out[clo:chi], arena, scannedTail(scanned, clo, chi))
			clo = chi
		}
	})
	return out, nil
}

func (ix *Index) validateBatch(queries [][]float32, k int) error {
	if k <= 0 {
		return fmt.Errorf("%w: k must be positive", ErrInvalid)
	}
	for i, q := range queries {
		if len(q) != ix.dim {
			return fmt.Errorf("%w: query %d dim %d, index dim %d", ErrInvalid, i, len(q), ix.dim)
		}
		if err := ValidateVector(q); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	return nil
}

func scannedTail(scanned []int, lo, hi int) []int {
	if scanned == nil {
		return nil
	}
	return scanned[lo:hi]
}

// searchChunk runs the staged pipeline for one chunk against one epoch
// snapshot: route the whole chunk (and, quantized, build its ADC tables),
// then answer each query, appending results to the arena and reslicing
// out[i] from it.
func (s *Searcher) searchChunk(ep *epoch, queries [][]float32, k int, opt SearchOptions, out [][]Result, arena []Result, scanned []int) []Result {
	start := time.Now()
	p := s.ix.plan(ep, k, opt)
	s.route(ep, queries, p.probes)
	stride := s.lut(ep, queries)
	for i, q := range queries {
		mark := len(arena)
		arena = s.answer(arena, ep, &p, i, q, s.luts[i*stride:(i+1)*stride])
		out[i] = arena[mark:len(arena):len(arena)]
		if scanned != nil {
			scanned[i] = len(s.cands)
		}
	}
	// Latency telemetry: each query's recorded latency is its amortized
	// share of the chunk, keeping usp_query_latency's count aligned with
	// usp_queries_total while reflecting the batch's amortization.
	per := time.Since(start) / time.Duration(len(queries))
	s.ix.tel.queryLatency.ObserveN(uint64(max(per, 0)), uint64(len(queries)))
	return arena
}
