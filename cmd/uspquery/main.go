// Command uspquery answers k-NN queries against an index written by
// cmd/usptrain. Queries come from an fvecs file; results are printed one
// line per query as "id:distance" pairs. The index is loaded first: a file
// that does not load as a snapshot is reported with its load error and a
// hint to re-train, and the command exits 2.
//
// Usage:
//
//	uspquery -index index.usps -queries q.fvecs -k 10 -probes 2
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	usp "repro"
	"repro/internal/dataset"
	"repro/internal/telemetry"
)

func main() {
	var (
		indexPath = flag.String("index", "", "index file from usptrain (required)")
		queryPath = flag.String("queries", "", "fvecs query file (required)")
		k         = flag.Int("k", 10, "neighbors to return")
		probes    = flag.Int("probes", 1, "bins to probe (m')")
	)
	flag.Parse()
	if *indexPath == "" || *queryPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	start := time.Now()
	ix, err := usp.LoadFile(*indexPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v — re-train with usptrain\n", *indexPath, err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "loaded snapshot: %d live vectors, dim %d, %d models (%s)\n",
		ix.Len(), ix.Dim(), ix.Stats().Models, time.Since(start).Round(time.Millisecond))
	queries, err := dataset.LoadFvecsFile(*queryPath)
	if err != nil {
		log.Fatalf("loading queries: %v", err)
	}
	serveSnapshot(ix, queries, *k, *probes)
}

// serveSnapshot runs the query file through a loaded self-contained
// snapshot using the zero-allocation engine.
func serveSnapshot(ix *usp.Index, queries *dataset.Dataset, k, probes int) {
	if queries.Dim != ix.Dim() {
		log.Fatalf("query dim %d != index dim %d", queries.Dim, ix.Dim())
	}

	opt := usp.SearchOptions{Probes: probes}
	s := ix.NewSearcher()
	dst := make([]usp.Result, 0, k)
	lat := newLatencyHist()
	start := time.Now()
	totalCands, totalSkipped := 0, 0
	var err error
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		qStart := time.Now()
		dst, err = s.SearchInto(dst[:0], q, k, opt)
		if err != nil {
			log.Fatalf("query %d: %v", qi, err)
		}
		lat.ObserveDuration(time.Since(qStart))
		totalCands += s.Scanned()
		totalSkipped += s.Skipped()
		fmt.Printf("q%d:", qi)
		for _, r := range dst {
			fmt.Printf(" %d:%.4f", r.ID, r.Distance)
		}
		fmt.Println()
	}
	reportTiming(queries.N, totalCands, time.Since(start), lat)
	if totalSkipped > 0 {
		fmt.Fprintf(os.Stderr, "tombstones skipped: %d (%.1f/query) — compaction would reclaim this scan work\n",
			totalSkipped, float64(totalSkipped)/float64(queries.N))
	}
}

func newLatencyHist() *telemetry.Histogram {
	return telemetry.NewHistogram("uspquery_latency_seconds", "", "", telemetry.NanosToSeconds)
}

// reportTiming prints the per-query stats summary: throughput, the latency
// percentiles extracted from the telemetry histogram (the same estimator
// the serving path exports on /metrics), and candidate volume.
func reportTiming(n, totalCands int, elapsed time.Duration, lat *telemetry.Histogram) {
	fmt.Fprintf(os.Stderr, "%d queries in %s (%.1f us/query, p50 %.1f us, p95 %.1f us, p99 %.1f us, avg |C| %.1f)\n",
		n, elapsed.Round(time.Millisecond),
		float64(elapsed.Nanoseconds())/float64(n)/1e3,
		lat.Quantile(0.50)/1e3, lat.Quantile(0.95)/1e3, lat.Quantile(0.99)/1e3,
		float64(totalCands)/float64(n))
}
