package usp

import (
	"time"

	"repro/internal/telemetry"
)

// indexMetrics is the per-index telemetry surface. Every Index owns one:
// query-path counters and the latency histogram are recorded by Searchers
// (a handful of atomic adds per query, allocation-free), lifecycle counters
// by the mutation path, and the gauges are polled from the live epoch at
// exposition time so they cost nothing between scrapes.
type indexMetrics struct {
	reg *telemetry.Registry

	// Query path (recorded in Searcher.SearchInto).
	queries           *telemetry.Counter
	queryErrors       *telemetry.Counter
	queryLatency      *telemetry.Histogram
	candidates        *telemetry.Counter
	binsProbed        *telemetry.Counter
	routeModels       *telemetry.Counter
	tombstonesSkipped *telemetry.Counter

	// Lifecycle (recorded in Add/Delete/compaction/publish).
	adds              *telemetry.Counter
	deletes           *telemetry.Counter
	epochPublishes    *telemetry.Counter
	compactions       *telemetry.Counter
	compactionNoops   *telemetry.Counter
	compactionLatency *telemetry.Histogram

	// Quantized query path (recorded only when the epoch carries codes).
	adcQueries       *telemetry.Counter
	rerankCandidates *telemetry.Counter
}

// newIndexMetrics builds the registry for ix. The gauge closures read the
// atomically published epoch, so polling them is lock-free and safe
// concurrently with everything; they must not be polled before the first
// epoch is published (newIndex publishes before returning).
func newIndexMetrics(ix *Index) *indexMetrics {
	reg := telemetry.NewRegistry()
	m := &indexMetrics{
		reg: reg,
		queries: reg.Counter("usp_queries_total", "",
			"Queries answered (Search, SearchInto, SearchBatch)."),
		queryErrors: reg.Counter("usp_query_errors_total", "",
			"Queries rejected by validation (bad k or dimension)."),
		queryLatency: reg.Histogram("usp_query_latency_seconds", "",
			"End-to-end latency of one query through the engine.", telemetry.NanosToSeconds),
		candidates: reg.Counter("usp_query_candidates_total", "",
			"Candidate ids gathered across all queries, including tombstoned ones (the paper's |C(q)| cost metric)."),
		binsProbed: reg.Counter("usp_query_bins_probed_total", "",
			"Partition bins probed across all queries."),
		routeModels: reg.Counter("usp_route_models_total", "",
			"Router model forward passes across all queries: each query's tree walk, single or batched, runs only the models its probed leaves need."),
		tombstonesSkipped: reg.Counter("usp_query_tombstones_skipped_total", "",
			"Gathered candidates dropped by the tombstone filter during scans."),
		adds: reg.Counter("usp_adds_total", "",
			"Vectors inserted via Add."),
		deletes: reg.Counter("usp_deletes_total", "",
			"Vectors tombstoned via Delete."),
		epochPublishes: reg.Counter("usp_epoch_publishes_total", "",
			"Epoch publications (one per Add, Delete, and compaction, plus the initial build/load)."),
		compactions: reg.Counter("usp_compactions_total", "",
			"Compaction cycles that merged pending mutations."),
		compactionNoops: reg.Counter("usp_compaction_noops_total", "",
			"Compaction cycles that found nothing pending."),
		compactionLatency: reg.Histogram("usp_compaction_latency_seconds", "",
			"Duration of compaction cycles that performed a merge.", telemetry.NanosToSeconds),
		adcQueries: reg.Counter("usp_adc_queries_total", "",
			"Queries answered through the quantized (ADC) candidate scan."),
		rerankCandidates: reg.Counter("usp_rerank_candidates_total", "",
			"Candidates exactly re-scored from float rows after the ADC pass (0 for ADC-only queries)."),
	}

	reg.GaugeFunc("usp_epoch", "",
		"Sequence number of the live epoch.",
		func() float64 { return float64(ix.live.Load().seq) })
	reg.GaugeFunc("usp_epoch_age_seconds", "",
		"Seconds since the live epoch was published.",
		func() float64 { return ix.EpochAge().Seconds() })
	reg.GaugeFunc("usp_rows", "",
		"Dataset rows, including deleted ones (ids are never renumbered).",
		func() float64 { return float64(ix.live.Load().data.N) })
	reg.GaugeFunc("usp_live_vectors", "",
		"Live (searchable) vectors.",
		func() float64 { return float64(ix.Len()) })
	reg.GaugeFunc("usp_pending_inserts", "",
		"Inserts added since the lookup tables were last packed (by build, load or compaction).",
		func() float64 {
			ep := ix.live.Load()
			return float64(ep.data.N - ep.packed)
		})
	reg.GaugeFunc("usp_tombstones", "",
		"Deletions not yet folded away by compaction.",
		func() float64 { return float64(ix.live.Load().tombs.Count()) })
	reg.GaugeFunc("usp_dead_rows", "",
		"Rows removed from the lookup tables by past compactions.",
		func() float64 { return float64(ix.live.Load().dead()) })
	reg.GaugeFunc("usp_quant_bytes_per_vector", "",
		"Bytes stored per vector on the serving path: PQ code bytes, plus the float row unless it was dropped (memory-tight). 0 when quantization is off.",
		func() float64 {
			qv := ix.live.Load().quant
			if qv == nil {
				return 0
			}
			b := float64(qv.pq.Subspaces)
			if !qv.tight {
				b += 4 * float64(ix.dim)
			}
			return b
		})
	reg.GaugeFunc("usp_quant_compression_ratio", "",
		"Raw float row bytes over PQ code bytes — how much smaller the scanned representation is. 0 when quantization is off.",
		func() float64 {
			qv := ix.live.Load().quant
			if qv == nil {
				return 0
			}
			return 4 * float64(ix.dim) / float64(qv.pq.Subspaces)
		})
	return m
}

// Telemetry returns the index's metric registry, for mounting on an
// exposition endpoint (see cmd/uspserve) or programmatic scraping.
func (ix *Index) Telemetry() *telemetry.Registry { return ix.tel.reg }

// EpochAge returns the time since the live epoch was published — how stale
// the serving snapshot is. A healthy mutating index republishes on every
// Add/Delete/compaction; a static one ages from build or load time.
func (ix *Index) EpochAge() time.Duration {
	return time.Duration(time.Now().UnixNano() - ix.publishedAt.Load())
}

// publish makes ep the live epoch and records the publication. Callers must
// hold wmu (or be the only writer, as in newIndex).
func (ix *Index) publish(ep *epoch) {
	ix.live.Store(ep)
	ix.publishedAt.Store(time.Now().UnixNano())
	ix.tel.epochPublishes.Inc()
}
