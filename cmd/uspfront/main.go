// uspfront is the stateless fan-out query front of the sharded serving
// tier: it spreads /search and /search/batch over a fleet of uspserve
// backends (disjoint shards, each optionally replicated) and merges the
// per-shard top-k into answers bit-identical to a single process serving
// the union dataset. See internal/frontier for the semantics — health
// ejection, bounded sibling retry on 5xx, per-request timeouts, and 429
// backpressure.
//
// The topology is given as shard groups separated by ';', with sibling
// replica URLs inside a group separated by ',':
//
//	go run ./cmd/uspfront -addr :8090 \
//	    -backends 'http://h1:8080,http://h1b:8080;http://h2:8080'
//
// declares two shards: the first served by two replicas, the second by
// one. The front learns each shard's id offset from its /healthz.
//
// Every query fans out anew, and the front keeps no answers. It reads no
// query either: /search, /search/batch and /add bodies go to the backends as
// the client sent them, the backends alone judge them, and each search reply
// carries the k the front merges to. A front therefore needs backends that
// put "k" in their search replies. Writes route too: /add goes to the
// least-loaded shard (every replica of it), /delete to the shard whose id
// range owns the global id.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/frontier"
)

func parseTopology(spec string) [][]string {
	var groups [][]string
	for _, g := range strings.Split(spec, ";") {
		var urls []string
		for _, u := range strings.Split(g, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, strings.TrimRight(u, "/"))
			}
		}
		if len(urls) > 0 {
			groups = append(groups, urls)
		}
	}
	return groups
}

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	backends := flag.String("backends", "", "shard topology: groups separated by ';', replica URLs by ',' (required)")
	timeout := flag.Duration("timeout", 2*time.Second, "per-backend request timeout")
	maxInFlight := flag.Int("max-in-flight", 256, "concurrent front requests before shedding with 429")
	healthEvery := flag.Duration("health-interval", 2*time.Second, "backend health probe period")
	flag.Parse()

	groups := parseTopology(*backends)
	if len(groups) == 0 {
		flag.Usage()
		log.Fatal("uspfront: -backends is required")
	}
	f, err := frontier.New(frontier.Config{
		Shards:         groups,
		Timeout:        *timeout,
		MaxInFlight:    *maxInFlight,
		HealthInterval: *healthEvery,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Learn id offsets and rotation state before taking traffic.
	f.ProbeHealth(context.Background())
	f.Start()
	defer f.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	log.Printf("fronting %d shards (%d backends) on %s", len(groups), total, ln.Addr())
	srv := &http.Server{
		Handler:           f.Mux(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

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
