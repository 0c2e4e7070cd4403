package main

import (
	"time"

	usp "repro"
)

// metricDef names one reported metric. The tables below are the single
// source of the metric names, units, directions and bounds; BENCHMARK.json
// at the repository root mirrors them (TestBenchmarkJSONMatchesTables).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them. bound is the share of the parent's median by which the
// metric may worsen before a change counts as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"batch_qps", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_p95_us", "us", "lower", 0.25},
	{"recall_at_10", "ratio", "higher", 0.08},
	{"heap_mb", "MB", "lower", 0.05},
}

// informational metrics are measured and printed by the untraced pass but
// are not part of the gated set: p99 proved unrepeatable on http_tier, where
// on a 2-CPU virtual machine it sits on the edge between the queueing ramp
// and a plateau one scheduler tick (4 ms) high that about 1 % of requests hit.
var informational = []metricDef{
	{Name: "lat_p99_us", Unit: "us", Better: "lower"},
}

// perLayer lists the metrics of single layers, measured by the traced pass.
// They carry no bound: they attribute a move of an end-to-end metric.
var perLayer = []metricDef{
	{Name: "vecmath.sql2_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "vecmath.lutsum_ns_per_code", Unit: "ns", Better: "lower"},
	{Name: "tensor.matmul_64x128x64_us", Unit: "us", Better: "lower"},
	{Name: "nn.forward_us", Unit: "us", Better: "lower"},
	{Name: "nn.forward_batch_us_per_row", Unit: "us", Better: "lower"},
	{Name: "core.route_us", Unit: "us", Better: "lower"},
	{Name: "core.gather_us", Unit: "us", Better: "lower"},
	{Name: "core.cand_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.bins_probed", Unit: "count", Better: "lower"},
	{Name: "core.bin_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "quant.lut_build_us", Unit: "us", Better: "lower"},
	{Name: "knn.float_scan_us", Unit: "us", Better: "lower"},
	{Name: "knn.float_scan_ns_per_cand", Unit: "ns", Better: "lower"},
	{Name: "knn.adc_scan_us", Unit: "us", Better: "lower"},
	{Name: "knn.adc_scan_ns_per_cand", Unit: "ns", Better: "lower"},
	{Name: "knn.rerank_us", Unit: "us", Better: "lower"},
	{Name: "usp.engine_p50_us", Unit: "us", Better: "lower"},
	{Name: "usp.engine_overhead_us", Unit: "us", Better: "lower"},
	{Name: "usp.stage_sum_ratio", Unit: "ratio", Better: "higher"},
	{Name: "usp.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "usp.build_s", Unit: "s", Better: "lower"},
	{Name: "usp.bulk_add_s", Unit: "s", Better: "lower"},
	{Name: "usp.bulk_add_us_per_row", Unit: "us", Better: "lower"},
	{Name: "usp.compact_s", Unit: "s", Better: "lower"},
	{Name: "usp.save_s", Unit: "s", Better: "lower"},
	{Name: "usp.load_s", Unit: "s", Better: "lower"},
	{Name: "usp.snapshot_mb", Unit: "MB", Better: "lower"},
	{Name: "usp.add_us", Unit: "us", Better: "lower"},
	{Name: "usp.delete_us", Unit: "us", Better: "lower"},
	{Name: "usp.add_p50_us", Unit: "us", Better: "lower"},
	{Name: "usp.add_p99_us", Unit: "us", Better: "lower"},
	{Name: "usp.compactions", Unit: "count", Better: "higher"},
	{Name: "usp.compact_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "usp.epoch_publishes", Unit: "count", Better: "lower"},
	{Name: "usp.read_p99_in_compact_us", Unit: "us", Better: "lower"},
	{Name: "usp.read_p99_out_compact_us", Unit: "us", Better: "lower"},
	{Name: "usp.tombstones_skipped_per_query", Unit: "count", Better: "lower"},
	{Name: "usp.heap_growth_mb", Unit: "MB", Better: "lower"},
	{Name: "serve.search_direct_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.search_batched_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.batcher_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "serve.flush_fast", Unit: "count", Better: "higher"},
	{Name: "serve.flush_window", Unit: "count", Better: "lower"},
	{Name: "serve.flush_full", Unit: "count", Better: "higher"},
	{Name: "serve.http_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_json_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.req_bytes", Unit: "count", Better: "lower"},
	{Name: "serve.resp_bytes", Unit: "count", Better: "lower"},
	{Name: "frontier.front_p50_us", Unit: "us", Better: "lower"},
	{Name: "frontier.fanout_overhead_us", Unit: "us", Better: "lower"},
	{Name: "frontier.backend_p50_us", Unit: "us", Better: "lower"},
	{Name: "frontier.retries", Unit: "count", Better: "lower"},
	{Name: "frontier.rejected", Unit: "count", Better: "lower"},
	{Name: "frontier.coalesced", Unit: "count", Better: "lower"},
	{Name: "ladder.r1000.p50_us", Unit: "us", Better: "lower"},
	{Name: "ladder.r1000.p99_us", Unit: "us", Better: "lower"},
	{Name: "ladder.r2000.p99_us", Unit: "us", Better: "lower"},
	{Name: "ladder.r4000.p99_us", Unit: "us", Better: "lower"},
	{Name: "ladder.r8000.p99_us", Unit: "us", Better: "lower"},
	{Name: "ladder.rate_ok_rps", Unit: "1/s", Better: "higher"},
	{Name: "gen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "host.speed", Unit: "ratio", Better: "higher"},
}

const (
	topK = 10
	// batchQueries is the SearchBatch call size of the batch phase.
	batchQueries = 256
	// tierBatchQueries is the /search/batch body size sent through the front.
	tierBatchQueries = 64
	// writeRate is the open-loop write load of churn: this many Add and this
	// many Delete per second, fixed so read numbers compare across commits.
	writeRate = 1000
	// probeEvery makes every n-th write check its own visibility.
	probeEvery = 50
	// ladderLimit is the p99 latency limit (from due time) a ladder rate
	// must meet to count as sustained.
	ladderLimit = 5 * time.Millisecond
)

var ladderRates = []int{1000, 2000, 4000, 8000}

// workloadSpec fixes one workload: its data sizes, index options, query
// options and the recall floor below which a run fails.
type workloadSpec struct {
	Name string
	Why  string
	// Rows is the indexed row count; SeedRows of them go through Build and
	// the rest through Add (SeedRows == Rows means Build covers everything).
	Rows, SeedRows int
	// Queries is the held-out query count, Pool the spare rows writes draw on.
	Queries, Pool int
	Options       usp.Options
	Search        usp.SearchOptions
	RecallFloor   float64
	// Setups is how many times set-up is repeated for the setup_s median.
	Setups int
	// SpeedSamples is how many samples of the host's speed are taken before
	// and after each set-up, and at both ends of a traced pass (see
	// calibrate.go); the measured phases take one after every repetition.
	SpeedSamples int
	// Reload serves from a snapshot saved and loaded back in set-up; Tier
	// stands up shards, servers and a front in set-up; Churn runs the
	// open-loop writer beside every measured phase.
	Reload, Tier, Churn bool
}

func floatSmallOptions() usp.Options {
	return usp.Options{Bins: 16, Ensemble: 2, Epochs: 15, Hidden: []int{64}}
}

// fullSpecs returns the four workloads at benchmark scale.
//
// adc_large is 50 000 rows, not the 200 000 the issue names: the driver's
// time cap leaves about 35 s per run, and its set-up (hierarchy training,
// bulk Add, compaction with codebook retrain, snapshot round trip) is about
// 20 s at this size. Repetition counts were kept.
func fullSpecs() []workloadSpec {
	adc := usp.Options{
		Hierarchy: []int{8, 8}, Epochs: 30, Hidden: []int{64}, CompactAfter: -1,
		Quantize: usp.Quantization{Enabled: true, Subspaces: 32, K: 256, TrainSample: 10000, Iters: 10},
	}
	return []workloadSpec{
		{
			Name: "float_small",
			Why:  "8000 rows, float scan, ~40us queries: forward pass, top-k and per-query fixed cost dominate; canary for engine overhead",
			Rows: 8000, SeedRows: 8000, Queries: 1000, Pool: 1000,
			Options: floatSmallOptions(), Search: usp.SearchOptions{Probes: 2},
			RecallFloor: 0.75, Setups: 3, SpeedSamples: 8,
		},
		{
			Name: "adc_large",
			Why:  "50000 rows bulk-loaded, compacted, saved and reloaded; PQ LUT build, ADC scan and re-rank dominate, forward pass does not",
			Rows: 50000, SeedRows: 8000, Queries: 1000, Pool: 2000,
			Options: adc, Search: usp.SearchOptions{Probes: 4, RerankK: 100},
			RecallFloor: 0.82, Setups: 1, SpeedSamples: 8, Reload: true,
		},
		{
			Name: "http_tier",
			Why:  "float_small index split in 2 shards behind batching servers and a front over loopback HTTP; JSON, HTTP, batcher and fan-out dominate",
			Rows: 8000, SeedRows: 8000, Queries: 2048, Pool: 1000,
			Options: floatSmallOptions(), Search: usp.SearchOptions{Probes: 2},
			RecallFloor: 0.75, Setups: 3, SpeedSamples: 8, Tier: true,
		},
		{
			Name: "churn",
			Why:  "reads beside a fixed 1000 Add/s + 1000 Delete/s with background compaction, so a read gain paid for by write or compaction cost shows",
			Rows: 8000, SeedRows: 8000, Queries: 1000, Pool: 40000,
			Options: floatSmallOptions(), Search: usp.SearchOptions{Probes: 2},
			RecallFloor: 0.72, Setups: 3, SpeedSamples: 8, Churn: true,
		},
	}
}

// smokeSpecs shrinks every workload so that all four, traced and untraced,
// run in a few seconds: it exists to compile and drive the whole harness
// under `go test`, not to measure.
func smokeSpecs() []workloadSpec {
	specs := fullSpecs()
	for i := range specs {
		s := &specs[i]
		s.Rows, s.SeedRows, s.Queries, s.Pool = 1200, 1200, 128, 3000
		s.Options.Epochs = 3
		s.Setups = 1
		s.SpeedSamples = 1
		s.RecallFloor = 0
		if s.Options.Quantize.Enabled {
			s.SeedRows = 600
			s.Options.Hierarchy = []int{4, 4}
			s.Options.Quantize.K = 32
			s.Options.Quantize.Iters = 3
			s.Options.Quantize.TrainSample = 1000
		}
	}
	return specs
}

func findSpec(specs []workloadSpec, name string) *workloadSpec {
	for i := range specs {
		if specs[i].Name == name {
			return &specs[i]
		}
	}
	return nil
}
