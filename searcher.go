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
	// Quantized-path scratch: the per-query flat ADC lookup table, the
	// ADC pass's top-rerankK survivors, the id list handed to the exact
	// re-rank, and Add's staged row code.
	lut     []float32
	adc     []vecmath.Neighbor
	rerank  []int32
	codeBuf []uint8
	// Batched-path scratch: the staged-chunk routing buffers and the flat
	// per-chunk ADC table arena of the quantized batch path.
	bs       core.BatchScratch
	lutArena []float32
}

// NewSearcher returns a fresh query context for the index. Buffers grow on
// first use and are retained across queries.
func (ix *Index) NewSearcher() *Searcher {
	return &Searcher{ix: ix, tk: vecmath.NewTopK(1)}
}

// gatherCandidates fills s.cands for q against the given epoch: per probed
// bin, the frozen CSR range followed by the epoch's spill entries. The
// candidate list may still contain tombstoned ids — the scan filters them,
// so gathering stays branch-free.
func (s *Searcher) gatherCandidates(ep *epoch, q []float32, probes int, union bool) {
	s.cands = s.cands[:0]
	if ep.hier != nil {
		s.cands = ep.hier.AppendCandidatesExtra(s.cands, q, probes, &s.qs, ep.extra())
		return
	}
	mode := core.BestConfidence
	if union {
		mode = core.UnionProbe
	}
	s.cands = ep.ens.AppendCandidatesExtra(s.cands, q, probes, mode, &s.qs, ep.data.N, ep.extra())
}

// Search returns the k approximate nearest neighbors of q. Steady-state it
// performs a single allocation: the returned result slice. Use SearchInto
// with a recycled slice to eliminate that too.
func (s *Searcher) Search(q []float32, k int, opt SearchOptions) ([]Result, error) {
	return s.SearchInto(make([]Result, 0, k), q, k, opt)
}

// SearchInto appends the k approximate nearest neighbors of q to dst and
// returns it. With a recycled dst it allocates nothing steady-state. The
// query runs entirely against one epoch snapshot: it never blocks on
// writers and observes either all or none of any concurrent mutation.
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
	probes := opt.Probes
	if probes <= 0 {
		probes = 1
	}
	start := time.Now()
	ep := ix.live.Load()
	s.gatherCandidates(ep, q, probes, opt.UnionEnsemble)
	rerankDepth := 0
	if qv := ep.quant; qv != nil {
		rerankDepth = s.scanQuantized(ep, q, k, opt.RerankK)
	} else {
		s.nbrs, s.skipped = knn.SearchSubsetIntoCounted(s.nbrs[:0], ep.data, s.cands, q, k, s.tk, ep.tombs)
	}
	for _, n := range s.nbrs {
		dst = append(dst, Result{ID: n.Index, Distance: n.Dist})
	}
	// A query's telemetry is a handful of uncontended atomic adds plus two
	// clock reads — allocation-free, so the engine's 0 allocs/op steady
	// state survives instrumentation (benchmark-asserted in CI).
	m := ix.tel
	m.queries.Inc()
	m.candidates.Add(uint64(len(s.cands)))
	m.binsProbed.Add(uint64(ix.probedBins(probes, opt.UnionEnsemble)))
	m.tombstonesSkipped.Add(uint64(s.skipped))
	if ep.quant != nil {
		m.adcQueries.Inc()
		m.rerankCandidates.Add(uint64(rerankDepth))
	}
	m.queryLatency.ObserveDuration(time.Since(start))
	return dst, nil
}

// scanQuantized runs the two-phase quantized scan against one epoch:
// phase 1 scores every gathered candidate from its PQ code via a per-query
// lookup table (asymmetric distance) and keeps the rerankK best; phase 2
// exactly re-scores those survivors from the float rows and keeps the k
// best. It fills s.nbrs and s.skipped like the float scan and returns the
// re-rank depth (0 when re-ranking was skipped). With rerankK < 0, or in
// memory-tight mode (no float rows), phase 2 is skipped and the ADC
// distances are returned directly — approximate, monotone in the true
// distance only up to quantization error. All scratch lives on s, so
// steady-state the scan allocates nothing.
func (s *Searcher) scanQuantized(ep *epoch, q []float32, k, rerankK int) int {
	s.lut = ep.quant.pq.AppendLUT(s.lut[:0], q)
	return s.scanQuantizedLUT(ep, q, k, rerankK, s.lut)
}

// scanQuantizedLUT is scanQuantized with a caller-provided ADC table — the
// batched path builds the whole chunk's tables in one AppendLUTBatch call
// and hands each query its slice of the arena. The table bits are identical
// either way, so the scan result is too.
func (s *Searcher) scanQuantizedLUT(ep *epoch, q []float32, k, rerankK int, lut []float32) int {
	qv := ep.quant
	m, kTab := qv.pq.Subspaces, qv.pq.K
	if rerankK < 0 || qv.tight {
		s.nbrs, s.skipped = knn.SearchSubsetADCIntoCounted(s.nbrs[:0], qv.codes, m, kTab, lut, s.cands, k, s.tk, ep.tombs)
		return 0
	}
	if rerankK == 0 {
		rerankK = 4 * k
	}
	if rerankK < k {
		rerankK = k
	}
	s.adc, s.skipped = knn.SearchSubsetADCIntoCounted(s.adc[:0], qv.codes, m, kTab, lut, s.cands, rerankK, s.tk, ep.tombs)
	s.rerank = s.rerank[:0]
	for _, nb := range s.adc {
		s.rerank = append(s.rerank, int32(nb.Index))
	}
	// Tombstones were already filtered in phase 1, so the exact pass
	// passes skip=nil and cannot double-count.
	s.nbrs = knn.SearchSubsetInto(s.nbrs[:0], ep.data, s.rerank, q, k, s.tk, nil)
	return len(s.rerank)
}

// probedBins is the number of partition bins a query with these options
// scans: best-confidence probes min(probes, bins) bins of one model, union
// mode probes that many in every ensemble member (members is 1 for a
// hierarchy, so the modes coincide there).
func (ix *Index) probedBins(probes int, union bool) int {
	if probes > ix.slotsPerMember {
		probes = ix.slotsPerMember
	}
	if union {
		return probes * ix.members
	}
	return probes
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
// staged chunks — one batched routing forward pass for the whole chunk (one
// dispatched MatMul per Dense layer instead of a per-query AXPY loop; on the
// quantized path, one batched ADC-table build), then a per-query candidate
// gather + scan through the worker's pooled scratch. Results align with
// queries by position and are bit-identical to looped single Search calls:
// batch and single-row inference share the same dispatched microkernels and
// accumulation order (pinned by TestSearchBatchBitIdentical).
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
		// each query appends at most k results, so the arena never regrows
		// and the batch path performs no per-query allocation.
		arena := make([]Result, 0, (hi-lo)*k)
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
// snapshot: stage the chunk's rows into the scratch matrix, run the batched
// routing forward pass (and, quantized, the batched ADC-table build), then
// gather + scan each query with the single-query scratch, appending results
// to the arena and reslicing out[i] from it.
func (s *Searcher) searchChunk(ep *epoch, queries [][]float32, k int, opt SearchOptions, out [][]Result, arena []Result, scanned []int) []Result {
	ix := s.ix
	probes := opt.Probes
	if probes <= 0 {
		probes = 1
	}
	mode := core.BestConfidence
	if opt.UnionEnsemble {
		mode = core.UnionProbe
	}
	start := time.Now()

	// Stage the chunk and run the whole chunk's routing inference at once.
	buf := s.bs.Stage(len(queries), ix.dim)
	for i, q := range queries {
		copy(buf[i*ix.dim:(i+1)*ix.dim], q)
	}
	if ep.hier != nil {
		ep.hier.RouteBatch(&s.bs)
	} else {
		ep.ens.RouteBatch(&s.bs, mode)
	}
	lutStride := 0
	if qv := ep.quant; qv != nil {
		lutStride = qv.pq.Subspaces * qv.pq.K
		s.lutArena = qv.pq.AppendLUTBatch(s.lutArena[:0], queries)
	}

	m := ix.tel
	binsProbed := uint64(ix.probedBins(probes, opt.UnionEnsemble))
	for i, q := range queries {
		s.cands = s.cands[:0]
		if ep.hier != nil {
			s.cands = ep.hier.AppendCandidatesRowBatch(s.cands, i, probes, &s.bs, ep.extra())
		} else {
			s.cands = ep.ens.AppendCandidatesRowBatch(s.cands, i, probes, mode, &s.bs, ep.data.N, ep.extra())
		}
		rerankDepth := 0
		if ep.quant != nil {
			rerankDepth = s.scanQuantizedLUT(ep, q, k, opt.RerankK, s.lutArena[i*lutStride:(i+1)*lutStride])
		} else {
			s.nbrs, s.skipped = knn.SearchSubsetIntoCounted(s.nbrs[:0], ep.data, s.cands, q, k, s.tk, ep.tombs)
		}
		mark := len(arena)
		for _, n := range s.nbrs {
			arena = append(arena, Result{ID: n.Index, Distance: n.Dist})
		}
		out[i] = arena[mark:len(arena):len(arena)]
		if scanned != nil {
			scanned[i] = len(s.cands)
		}
		m.queries.Inc()
		m.candidates.Add(uint64(len(s.cands)))
		m.binsProbed.Add(binsProbed)
		m.tombstonesSkipped.Add(uint64(s.skipped))
		if ep.quant != nil {
			m.adcQueries.Inc()
			m.rerankCandidates.Add(uint64(rerankDepth))
		}
	}
	// Latency telemetry: each query's recorded latency is its amortized
	// share of the chunk, keeping usp_query_latency's count aligned with
	// usp_queries_total while reflecting the batch's amortization.
	per := time.Since(start) / time.Duration(len(queries))
	m.queryLatency.ObserveN(uint64(max(per, 0)), uint64(len(queries)))
	return arena
}
