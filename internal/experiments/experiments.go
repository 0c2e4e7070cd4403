// Package experiments contains one runner per table and figure of the
// paper's evaluation (§5), mapped in DESIGN.md's per-experiment index. Each
// runner builds its datasets, trains every method, sweeps the probe
// parameter, and renders an ASCII report; cmd/uspbench and the repository's
// benchmark suite both dispatch into this package.
//
// Dataset scale is configurable: the paper's SIFT1M/MNIST are replaced by
// synthetic stand-ins (see DESIGN.md) whose sizes default to what a single
// CPU core handles in minutes, and scale up via flags.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	usp "repro"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/knn"
)

// Scale sets dataset and training sizes for a run.
type Scale struct {
	// SIFTN and MNISTN are the stand-in dataset sizes.
	SIFTN, MNISTN int
	// Queries is the held-out query count per dataset.
	Queries int
	// Epochs of training per learned model.
	Epochs int
	// Ensemble is the USP ensemble size e (paper: 3).
	Ensemble int
	// Hidden is the USP hidden width (paper: 128) and NLSHHidden the
	// Neural LSH hidden width (paper: 512).
	Hidden, NLSHHidden int
	// TreeDepth is the Fig. 6 tree depth (paper: 10 at n=1M; scaled so
	// leaves keep ≳30 points).
	TreeDepth int
	// Seed drives all generators and trainers.
	Seed int64
}

// DefaultScale is sized for a single-core run of a few minutes per
// experiment.
func DefaultScale() Scale {
	return Scale{
		SIFTN: 4000, MNISTN: 2000, Queries: 200,
		Epochs: 40, Ensemble: 3, Hidden: 64, NLSHHidden: 128,
		TreeDepth: 7, Seed: 1,
	}
}

// BenchScale is sized for the testing.B suite (seconds per experiment).
func BenchScale() Scale {
	return Scale{
		SIFTN: 1200, MNISTN: 800, Queries: 60,
		Epochs: 15, Ensemble: 2, Hidden: 32, NLSHHidden: 48,
		TreeDepth: 5, Seed: 1,
	}
}

// Report is a runner's output.
type Report struct {
	ID     string
	Text   string
	Series []eval.Series
}

// runner executes one experiment.
type runner func(sc Scale, logf func(string, ...any)) (*Report, error)

var registry = map[string]runner{
	"fig5a":             func(sc Scale, l logfn) (*Report, error) { return fig5(sc, l, "sift", 16) },
	"fig5b":             func(sc Scale, l logfn) (*Report, error) { return fig5(sc, l, "mnist", 16) },
	"fig5c":             func(sc Scale, l logfn) (*Report, error) { return fig5(sc, l, "sift", 256) },
	"fig5d":             func(sc Scale, l logfn) (*Report, error) { return fig5(sc, l, "mnist", 256) },
	"fig6a":             func(sc Scale, l logfn) (*Report, error) { return fig6(sc, l, "sift") },
	"fig6b":             func(sc Scale, l logfn) (*Report, error) { return fig6(sc, l, "mnist") },
	"fig7a":             func(sc Scale, l logfn) (*Report, error) { return fig7(sc, l, "sift") },
	"fig7b":             func(sc Scale, l logfn) (*Report, error) { return fig7(sc, l, "mnist") },
	"table2":            table2,
	"table3":            table3,
	"table4":            table4,
	"table5":            table5,
	"ablation_kprime":   ablationKPrime,
	"ablation_eta":      ablationEta,
	"ablation_ensemble": ablationEnsemble,
	"ablation_batch":    ablationBatch,
	"ablation_arch":     ablationArch,
}

type logfn = func(string, ...any)

// IDs lists the registered experiment ids in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes the experiment with the given id.
func Run(id string, sc Scale, logf logfn) (*Report, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return r(sc, logf)
}

// bench is a prepared dataset/query/ground-truth triple.
type bench struct {
	name    string
	base    *dataset.Dataset
	queries *dataset.Dataset
	gt      [][]int32
}

// makeBench generates the named stand-in dataset, withholds queries, and
// computes their ground truth.
func makeBench(name string, sc Scale, k int) *bench {
	rng := rand.New(rand.NewSource(sc.Seed))
	var full *dataset.Dataset
	switch name {
	case "sift":
		full = dataset.SIFTLike(sc.SIFTN+sc.Queries, rng)
	case "mnist":
		full = dataset.MNISTLike(sc.MNISTN+sc.Queries, rng)
	default:
		panic("experiments: unknown dataset " + name)
	}
	base, queries := dataset.SplitQueries(full, sc.Queries, rng)
	return &bench{
		name:    name,
		base:    base,
		queries: queries,
		gt:      knn.GroundTruth(base, queries, k),
	}
}

// probeSchedule returns a log-ish sweep of probe counts up to m.
func probeSchedule(m int) []int {
	var out []int
	for p := 1; p < m; p *= 2 {
		out = append(out, p)
		if p3 := p * 3 / 2; p3 < m && p3 > p {
			out = append(out, p3)
		}
	}
	out = append(out, m)
	sort.Ints(out)
	// Dedupe.
	uniq := out[:1]
	for _, p := range out[1:] {
		if p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	return uniq
}

// etaFor returns the paper's Table 3 η for a (dataset, bins) configuration.
func etaFor(name string, bins int) float64 {
	switch {
	case name == "mnist" && bins >= 256:
		return 30
	case name == "sift" && bins >= 256:
		return 10
	default:
		return 7
	}
}

// uspOptions is the paper's USP configuration for a dataset and bin count:
// k′ = 10, Table 3's η, and an ensemble of sc.Ensemble models at 16 bins or
// the hierarchical 16 × bins/16 partition above, as in the paper's 256-bin
// runs.
func uspOptions(sc Scale, ds string, bins int) usp.Options {
	opt := usp.Options{
		Bins: bins, KPrime: 10, Eta: usp.Float(etaFor(ds, bins)), Epochs: sc.Epochs,
		Hidden: []int{sc.Hidden}, Ensemble: sc.Ensemble, Seed: sc.Seed,
	}
	if bins > 16 {
		opt.Hierarchy, opt.Ensemble = []int{16, bins / 16}, 1
	}
	return opt
}

// uspCandidates is ix's candidate source for the sweeps: CandidateSet at p
// probes, the ids the engine scans for q. It panics on an error, which only
// a query the index rejects returns, and every query here is a finite row
// of the indexed stand-in's width.
func uspCandidates(ix *usp.Index) func(q []float32, p int) []int {
	return func(q []float32, p int) []int {
		c, err := ix.CandidateSet(q, usp.SearchOptions{Probes: p})
		if err != nil {
			panic(err)
		}
		return c
	}
}
