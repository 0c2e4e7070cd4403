// Command bench is the repository's benchmark: four workloads, each reporting
// end-to-end metrics as medians over repetitions from an untraced pass and
// per-layer metrics from a separate traced pass, with correctness checked in
// the same run. See README.md in this directory for the glossary.
//
//	go run ./bench -workload all -seed 42          # every workload, both passes
//	go run ./bench -workload churn -seed 7 -trace 1
//	go run ./bench -compare A.json B.json
//	go run ./bench -smoke                          # tiny sizes, a few seconds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"repro/internal/vecmath"
)

// environment is the block every output carries, so that two result files
// can be told apart by more than their numbers.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernels    string  `json:"vecmath_impl"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	EngineReps int     `json:"engine_reps"`
	TierReps   int     `json:"tier_reps"`
}

func currentEnvironment(seed int64, seconds float64, smoke bool) environment {
	return environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Kernels: vecmath.Impl(),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: gitCommit(), Seed: seed, Seconds: seconds, Smoke: smoke,
		EngineReps: engineReps, TierReps: tierReps,
	}
}

// gitCommit reads the checked-out commit from .git in the working directory,
// without running git; a plain source checkout has none and says "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref // detached: HEAD holds the hash itself
	}
	if hash, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(hash))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, ok := strings.CutSuffix(line, " "+ref); ok {
			return hash
		}
	}
	return "unknown"
}

// report is the file -out writes and -compare reads.
type report struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// workloadReport pairs a workload's untraced and traced runs.
type workloadReport struct {
	Untraced *runResult `json:"untraced,omitempty"`
	Traced   *runResult `json:"traced,omitempty"`
}

// driverLine is the one JSON object the benchmark driver reads from the last
// line of standard output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func toDriverLine(res *runResult) driverLine {
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]driverMetric{}}
	if res.Traced {
		for _, d := range perLayer {
			line.Metrics[d.Name] = driverMetric{res.PerLayer[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			line.Metrics[d.Name] = driverMetric{res.EndToEnd[d.Name].Median, d.Unit}
		}
	}
	return line
}

// printResult prints every metric of a run by name with its unit.
func printResult(w io.Writer, res *runResult) {
	pass := "untraced"
	if res.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %.0fs measured, %.1fs wall)\n", res.Workload, pass, res.Seed, res.Seconds, res.WallS)
	if res.Traced {
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, res.PerLayer[d.Name], d.Unit)
		}
		if res.Reconciled != nil && !*res.Reconciled {
			fmt.Fprintf(w, "  trace UNRECONCILED: stage times do not add up to the engine's time (usp.stage_sum_ratio outside 0.85-1.15)\n")
		}
	} else {
		for i, d := range append(slices.Clone(endToEnd), informational...) {
			v := res.EndToEnd[d.Name]
			note := ""
			if v.TailPct != 0 {
				note = fmt.Sprintf("  (taken at p%g: too few samples)", v.TailPct)
			}
			if i >= len(endToEnd) {
				note += "  (informational, not gated)"
			}
			if v.Raw != 0 {
				note = fmt.Sprintf("  wall-clock %.4f", v.Raw) + note
			}
			fmt.Fprintf(w, "  %-14s %14.4f %-5s spread %6.2f%%  reps %d  samples %d%s\n",
				d.Name, v.Median, d.Unit, 100*v.Spread, len(v.Reps), v.Samples, note)
		}
	}
	if res.Traced {
		fmt.Fprintf(w, "  host speed %.4f (1 = the reference machine in its fast state); times above are wall-clock\n", res.HostSpeed)
	} else {
		fmt.Fprintf(w, "  host speed %.4f during set-up, %.4f during the measured phases (1 = the reference machine in its fast state); times above are calibrated by them\n", res.SetupSpeed, res.HostSpeed)
	}
	fmt.Fprintf(w, "  fail_ratio %g (%d failed or wrong of %d attempted)\n", res.FailRatio, res.Failed, res.Attempted)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILURE: %s\n", f)
	}
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

// realMain runs the command and returns its exit code: 0 when every run was
// correct, 1 when a check failed, 2 when the run could not be made.
func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: float_small, adc_large, http_tier, churn, or all")
	seed := fs.Int64("seed", 42, "seed of every generated input: data, queries, arrival schedule, build seeds")
	seconds := fs.Float64("seconds", 10, "seconds of measurement per pass")
	trace := fs.Int("trace", -1, "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics); -1: both")
	smoke := fs.Bool("smoke", false, "tiny sizes and sub-second phases: drives the whole harness, measures nothing")
	outDir := fs.String("out-dir", filepath.Join("bench", "out"), "directory for traces, snapshots and the default report")
	out := fs.String("out", "", "report file (default <out-dir>/result.json)")
	compare := fs.Bool("compare", false, "compare two report files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareReports(stdout, fs.Arg(0), fs.Arg(1))
	}
	// More runnable threads than CPUs would report time-slicing as latency.
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		fmt.Fprintf(os.Stderr, "bench: GOMAXPROCS=%d exceeds the %d CPUs available; refusing to measure\n", p, n)
		return 2
	}
	specs := fullSpecs()
	if *smoke {
		specs = smokeSpecs()
		if !flagSet(fs, "seconds") {
			*seconds = 0.4
		}
	}
	var chosen []*workloadSpec
	if *workload == "all" {
		for i := range specs {
			chosen = append(chosen, &specs[i])
		}
	} else if s := findSpec(specs, *workload); s != nil {
		chosen = append(chosen, s)
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }

	rep := report{Env: currentEnvironment(*seed, *seconds, *smoke), Workloads: map[string]*workloadReport{}}
	code := 0
	var last *runResult
	for _, spec := range chosen {
		wr := &workloadReport{}
		rep.Workloads[spec.Name] = wr
		for _, traced := range []bool{false, true} {
			if *trace == 0 && traced || *trace == 1 && !traced {
				continue
			}
			res, err := runWorkload(spec, *seed, *seconds, traced, *outDir, logf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", spec.Name, err)
				return 2
			}
			if traced {
				wr.Traced = res
			} else {
				wr.Untraced = res
			}
			printResult(stdout, res)
			if !res.Correct {
				code = 1
			}
			last = res
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(*outDir, "result.json")
	}
	if err := writeJSONFile(path, rep); err != nil {
		fmt.Fprintf(os.Stderr, "bench: writing report: %v\n", err)
		return 2
	}
	// The driver's contract: one run, one JSON object on the last line.
	if len(chosen) == 1 && *trace >= 0 {
		line, err := json.Marshal(toDriverLine(last))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		fmt.Fprintln(stdout, string(line))
	}
	return code
}

func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}
