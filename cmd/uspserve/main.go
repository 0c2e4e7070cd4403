// uspserve is one USP search backend: it trains a demo index at startup
// (or loads a snapshot via -index), then serves JSON k-NN queries over
// HTTP — the distributed-serving setting §2.2.2 argues space partitioning
// is naturally suited to. It is the unit the sharded serving tier scales
// horizontally: cmd/uspshard splits a snapshot into disjoint shard
// snapshots, one uspserve process serves each, and cmd/uspfront fans
// queries out over them.
//
// The endpoint surface lives in internal/serve; highlights:
//
//	/search, /search/batch  k-NN queries (strict validation, 400 on bad
//	                        parameters, 500 only for server-side faults);
//	                        -batch-window enables the micro-batch
//	                        scheduler that aggregates concurrent /search
//	                        requests into staged SearchBatch calls
//	/add, /delete, /compact index mutations
//	/save                   snapshot to disk, confined to -data-dir
//	/reload                 atomically swap in a snapshot from -data-dir
//	                        without dropping in-flight queries
//	/metrics, /healthz      observability (healthz carries the shard's
//	                        id_offset and the reload generation)
//
//	go run ./cmd/uspserve -addr :8080
//	curl -s localhost:8080/stats
//	curl -s -X POST localhost:8080/search \
//	     -d '{"vector": [ ...64 floats... ], "k": 5, "probes": 2}'
//	curl -s -X POST localhost:8080/save -d '{"path": "index.usps"}'
//	curl -s -X POST localhost:8080/reload -d '{"path": "index.usps"}'
package main

import (
	"context"
	"flag"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	usp "repro"
	"repro/internal/dataset"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	indexPath := flag.String("index", "", "serve this snapshot instead of training a demo corpus")
	dataDir := flag.String("data-dir", ".", "directory /save and /reload snapshots are confined to")
	withPprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	quantized := flag.Bool("quantized", false, "train the demo corpus with PQ codebooks and serve via the quantized (ADC) scan")
	rerankK := flag.Int("rerank-k", 0, "default exact re-rank depth for quantized searches (0 = engine default, -1 = ADC only)")
	batchWindow := flag.Duration("batch-window", 0, "micro-batch collection window for concurrent /search requests (0 disables the scheduler)")
	batchMax := flag.Int("batch-max", 0, "max requests per micro-batch flush (0 = 64; only with -batch-window)")
	flag.Parse()

	var ix *usp.Index
	var err error
	if *indexPath != "" {
		log.Printf("loading snapshot %s...", *indexPath)
		if ix, err = usp.LoadFile(*indexPath); err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded %d vectors of dim %d (id offset %d)", ix.Len(), ix.Dim(), ix.IDOffset())
	} else {
		log.Println("generating corpus and training index...")
		rng := rand.New(rand.NewSource(9))
		corpus := dataset.GaussianMixture(dataset.GaussianMixtureConfig{
			N: 3000, Dim: 64, Clusters: 24, ClusterStd: 0.8, CenterBox: 3,
		}, rng)
		ix, err = usp.Build(corpus.Rows(), usp.Options{
			Bins: 16, Ensemble: 2, Epochs: 30, Hidden: []int{64}, Seed: 1,
			Quantize: usp.Quantization{Enabled: *quantized},
		})
		if err != nil {
			log.Fatal(err)
		}
		if *quantized {
			log.Println("serving via the quantized (ADC) candidate scan")
		}
	}
	s := serve.New(ix, serve.Config{
		DataDir: *dataDir, RerankK: *rerankK, Pprof: *withPprof,
		BatchWindow: *batchWindow, BatchMax: *batchMax,
	})
	defer s.Close()
	if *batchWindow > 0 {
		log.Printf("micro-batch scheduler on: window %s, max %d requests/flush", *batchWindow, *batchMax)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving on %s", ln.Addr())
	srv := &http.Server{
		Handler:           s.Mux(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	// Graceful shutdown: SIGINT/SIGTERM stops accepting connections and
	// drains in-flight requests (queries resolve their epoch and finish)
	// instead of killing them mid-response.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("signal received; draining in-flight requests...")
		sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		log.Printf("drained; bye")
	}
}
