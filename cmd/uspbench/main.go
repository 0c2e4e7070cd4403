// Command uspbench runs the paper-reproduction experiments (every table and
// figure of the evaluation section, plus ablations) and prints their
// reports. See DESIGN.md for the experiment index.
//
// Usage:
//
//	uspbench -exp fig5a                 # one experiment at default scale
//	uspbench -exp all                   # everything
//	uspbench -exp fig5a -sift-n 20000   # scale the SIFT stand-in up
//	uspbench -list                      # list experiment ids
//
// The serving benchmark of record is the harness in bench/ (go run ./bench).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id, or 'all'")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		siftN    = flag.Int("sift-n", 0, "override SIFT-like dataset size")
		mnistN   = flag.Int("mnist-n", 0, "override MNIST-like dataset size")
		queries  = flag.Int("queries", 0, "override query count")
		epochs   = flag.Int("epochs", 0, "override training epochs")
		ensemble = flag.Int("ensemble", 0, "override USP ensemble size")
		seed     = flag.Int64("seed", 0, "override RNG seed")
		verbose  = flag.Bool("v", false, "log per-step progress")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}

	sc := experiments.DefaultScale()
	if *siftN > 0 {
		sc.SIFTN = *siftN
	}
	if *mnistN > 0 {
		sc.MNISTN = *mnistN
	}
	if *queries > 0 {
		sc.Queries = *queries
	}
	if *epochs > 0 {
		sc.Epochs = *epochs
	}
	if *ensemble > 0 {
		sc.Ensemble = *ensemble
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = log.Printf
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		rep, err := experiments.Run(id, sc, logf)
		if err != nil {
			log.Fatalf("experiment %s: %v", id, err)
		}
		fmt.Println(rep.Text)
		fmt.Printf("[%s completed in %s]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
