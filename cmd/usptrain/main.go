// Command usptrain trains a USP partitioning index over an fvecs dataset
// and writes it to disk for cmd/uspquery or cmd/uspserve to serve.
//
// The output is a self-contained versioned snapshot (models, lookup tables,
// dataset rows, norm cache, tombstones — see DESIGN.md) that serves queries
// on its own.
//
// Usage:
//
//	usptrain -data sift.fvecs -bins 16 -ensemble 3 -o index.usps
//	usptrain -data sift.fvecs -hierarchy 16,16 -o index.usps
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	usp "repro"
	"repro/internal/dataset"
)

func main() {
	var (
		dataPath = flag.String("data", "", "input fvecs dataset (required)")
		out      = flag.String("o", "", "output index path (required)")
		bins     = flag.Int("bins", 16, "number of partition bins m")
		ensemble = flag.Int("ensemble", 1, "ensemble size e")
		hier     = flag.String("hierarchy", "", "comma-separated branching factors (e.g. 16,16); overrides -bins/-ensemble")
		kPrime   = flag.Int("kprime", 10, "k'-NN matrix width")
		eta      = flag.Float64("eta", 10, "balance weight (0 disables the balance term)")
		epochs   = flag.Int("epochs", 60, "training epochs")
		hidden   = flag.Int("hidden", 128, "hidden width (0 = logistic regression)")
		seed     = flag.Int64("seed", 1, "RNG seed")
		verbose  = flag.Bool("v", false, "log per-epoch losses")
	)
	flag.Parse()
	if *dataPath == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}

	ds, err := dataset.LoadFvecsFile(*dataPath)
	if err != nil {
		log.Fatalf("loading dataset: %v", err)
	}
	fmt.Printf("loaded %d vectors of dim %d\n", ds.N, ds.Dim)

	var levels []int
	if *hier != "" {
		for _, part := range strings.Split(*hier, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || v < 2 {
				log.Fatalf("bad -hierarchy element %q", part)
			}
			levels = append(levels, v)
		}
	}

	opt := usp.Options{
		Bins: *bins, Ensemble: *ensemble, Hierarchy: levels,
		KPrime: *kPrime, Eta: usp.Float(*eta), Epochs: *epochs, Seed: *seed,
	}
	if *hidden > 0 {
		opt.Hidden = []int{*hidden}
	} else {
		opt.Logistic = true
	}
	if *verbose {
		opt.Logf = log.Printf
	}

	start := time.Now()
	ix, err := usp.Build(ds.Rows(), opt)
	if err != nil {
		log.Fatalf("training: %v", err)
	}
	st := ix.Stats()
	fmt.Printf("trained %d model(s), %d bins, %d params total, in %s\n",
		st.Models, st.Bins, st.Params, time.Since(start).Round(time.Millisecond))
	if err := ix.SaveFile(*out); err != nil {
		log.Fatalf("writing snapshot: %v", err)
	}
	if info, err := os.Stat(*out); err == nil {
		fmt.Printf("wrote self-contained snapshot to %s (%d bytes)\n", *out, info.Size())
	} else {
		fmt.Printf("wrote self-contained snapshot to %s\n", *out)
	}
}
