package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	usp "repro"
)

// TestSmokeRunsEveryWorkloadBothPasses drives the whole harness at tiny
// sizes: every workload, untraced and traced, must come out correct and
// report every named metric.
func TestSmokeRunsEveryWorkloadBothPasses(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if code := realMain([]string{"-smoke", "-seed", "3", "-out-dir", dir}, &out); code != 0 {
		t.Fatalf("smoke run exited %d:\n%s", code, out.String())
	}
	rep, err := readReport(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	env := rep.Env
	if env.NumCPU < 1 || env.GOMAXPROCS > env.NumCPU || env.Kernels == "" || env.GoVersion == "" || env.Seed != 3 || env.EngineReps != engineReps || !env.Smoke {
		t.Errorf("environment block %+v", env)
	}
	for _, spec := range fullSpecs() {
		wr := rep.Workloads[spec.Name]
		if wr == nil || wr.Untraced == nil || wr.Traced == nil {
			t.Fatalf("%s: a pass is missing from the report", spec.Name)
		}
		for _, res := range []*runResult{wr.Untraced, wr.Traced} {
			if !res.Correct || res.Failed != 0 || res.Attempted < 100 {
				t.Errorf("%s traced=%v: correct=%v, %d failed of %d: %v", spec.Name, res.Traced, res.Correct, res.Failed, res.Attempted, res.Failures)
			}
		}
		for _, d := range endToEnd {
			v, ok := wr.Untraced.EndToEnd[d.Name]
			if !ok || !(v.Median > 0) || v.Unit != d.Unit || len(v.Reps) == 0 || v.Samples == 0 {
				t.Errorf("%s: end-to-end metric %s = %+v", spec.Name, d.Name, v)
			}
			if !strings.Contains(out.String(), d.Name) {
				t.Errorf("metric %s is not printed by name", d.Name)
			}
		}
		for _, d := range perLayer {
			v, ok := wr.Traced.PerLayer[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v (present %v)", spec.Name, d.Name, v, ok)
			}
			// A difference of two times may be negative, and a smoke run is
			// too short to see a compaction; every other time was measured.
			if strings.HasSuffix(d.Name, "_us") && !strings.Contains(d.Name, "overhead") && d.Name != "usp.read_p99_in_compact_us" && !(v > 0) {
				t.Errorf("%s: %s = %v, want a measured time", spec.Name, d.Name, v)
			}
		}
		if len(wr.Traced.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics reported, %d named", spec.Name, len(wr.Traced.PerLayer), len(perLayer))
		}
		// The layer ladder reconciles when each layer costs more than the one
		// it wraps. A smoke phase lasts tens of milliseconds, so on a busy
		// machine this is a thing to read, not to fail on.
		pl := wr.Traced.PerLayer
		if pl["serve.http_p50_us"] <= pl["serve.search_direct_p50_us"] || pl["frontier.front_p50_us"] <= pl["serve.http_p50_us"] {
			t.Logf("%s: ladder does not reconcile: direct %.1f, http %.1f, front %.1f us", spec.Name,
				pl["serve.search_direct_p50_us"], pl["serve.http_p50_us"], pl["frontier.front_p50_us"])
		}
		trace, err := os.ReadFile(filepath.Join(dir, "trace-"+spec.Name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		var first struct {
			Name   string
			Parent int
		}
		line, _, _ := bytes.Cut(trace, []byte("\n"))
		if err := json.Unmarshal(line, &first); err != nil || first.Name == "" || first.Parent != -1 {
			t.Errorf("%s: first trace line %q: %v", spec.Name, line, err)
		}
		for _, name := range []string{"core.route", "knn.float_scan", "knn.adc_scan", "usp.search", "serve.http", "frontier.front", "usp.add"} {
			if !bytes.Contains(trace, []byte(`"name":"`+name+`"`)) {
				t.Errorf("%s: no %s span in the trace", spec.Name, name)
			}
		}
	}
}

// TestDriverLine checks the contract of a single run: the last line of
// standard output is one JSON object with exactly the named metrics.
func TestDriverLine(t *testing.T) {
	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		var out bytes.Buffer
		args := []string{"--workload", "float_small", "--seed", "9", "--seconds", "0.3", "--trace", trace, "-smoke", "-out-dir", t.TempDir()}
		if code := realMain(args, &out); code != 0 {
			t.Fatalf("exit code %d:\n%s", code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]driverMetric
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("trace %s: correct/attempted/failed wrong in %q", trace, lines[len(lines)-1])
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s = %+v (present %v), want unit %s", trace, d.Name, m, ok, d.Unit)
			}
		}
	}
}

// smokeRun prepares a smoke-sized float_small run up to its reference
// answers.
func smokeRun(t *testing.T, spec *workloadSpec) (*run, *served, [][]usp.Result) {
	t.Helper()
	r := &run{spec: spec, seconds: 0.2, logf: t.Logf, res: &runResult{}, cal: newCalibrator()}
	r.w = newWorld(spec, 5, spec.Pool, t.TempDir())
	sv, _, err := r.setUp()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sv.close)
	ref, err := reference(sv.ix, r.w.queries, spec.Search)
	if err != nil {
		t.Fatal(err)
	}
	return r, sv, ref
}

// A check broken on purpose must fail the run loudly: one flipped distance
// bit in one expected answer is enough.
func TestCorruptedAnswerFailsTheRun(t *testing.T) {
	spec := findSpec(smokeSpecs(), "float_small")
	r, sv, ref := smokeRun(t, spec)
	r.enginePhases(sv.ix, ref, map[string]e2eValue{})
	if r.res.Failed != 0 || r.res.Attempted == 0 {
		t.Fatalf("clean run: %d failed of %d", r.res.Failed, r.res.Attempted)
	}
	ref[0][0].Distance = math.Float32frombits(math.Float32bits(ref[0][0].Distance) ^ 1)
	r.enginePhases(sv.ix, ref, map[string]e2eValue{})
	if r.res.Failed == 0 {
		t.Fatal("a corrupted expected answer went unnoticed")
	}

	// The same corruption in an HTTP reply.
	want := ref[1]
	reply := func(ids []int, dists []float32) []byte {
		b, err := json.Marshal(map[string]any{"ids": ids, "distances": dists})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var ids []int
	var dists []float32
	for _, x := range want {
		ids, dists = append(ids, x.ID), append(dists, x.Distance)
	}
	if !checkSearchReply(reply(ids, dists), want, true) {
		t.Error("a faithful reply was judged wrong")
	}
	dists[3] = math.Float32frombits(math.Float32bits(dists[3]) + 1)
	if checkSearchReply(reply(ids, dists), want, true) || checkSearchReply(reply(ids, dists), want, false) {
		t.Error("a reply one distance bit off was judged right")
	}
	ids[0], ids[1] = ids[1], ids[0]
	if checkSearchReply(reply(ids, want2dists(want)), want, true) {
		t.Error("a reply with two ids swapped was judged right")
	}
	if checkSearchReply([]byte("{"), want, false) {
		t.Error("a truncated reply was judged right")
	}
}

func want2dists(want []usp.Result) []float32 {
	var d []float32
	for _, x := range want {
		d = append(d, x.Distance)
	}
	return d
}

// A run whose recall falls below the workload's floor exits non-zero.
func TestRecallFloorFailsTheRun(t *testing.T) {
	spec := *findSpec(smokeSpecs(), "float_small")
	spec.RecallFloor = 1.01
	res, err := runWorkload(&spec, 5, 0.2, false, t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || len(res.Failures) == 0 || !strings.Contains(res.Failures[0], "recall") {
		t.Errorf("correct=%v failed=%d failures=%v", res.Correct, res.Failed, res.Failures)
	}
}

// The writer's probes catch a write that did not take effect.
func TestWriterProbesCatchBrokenWrites(t *testing.T) {
	spec := findSpec(smokeSpecs(), "churn")
	_, sv, _ := smokeRun(t, spec)
	w := &writer{ix: sv.ix, search: spec.Search}
	vec := make([]float32, sv.ix.Dim())
	id, err := sv.ix.Add(vec)
	if err != nil {
		t.Fatal(err)
	}
	w.probeAdded(id, vec)
	w.probeDeleted(id+1000, vec)
	if w.failed != 0 {
		t.Fatalf("honest writes were flagged: %v", w.notes)
	}
	w.probeAdded(id+1, vec) // claims an id the vector does not have
	w.probeDeleted(id, vec) // claims a delete that never happened
	if w.failed != 2 {
		t.Errorf("%d of 2 broken writes flagged: %v", w.failed, w.notes)
	}
}

func TestRefusesMoreProcsThanCPUs(t *testing.T) {
	prev := runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	defer runtime.GOMAXPROCS(prev)
	var out bytes.Buffer
	if code := realMain([]string{"-smoke", "-out-dir", t.TempDir()}, &out); code != 2 {
		t.Errorf("exit code %d with GOMAXPROCS above the CPU count, want 2", code)
	}
}

func TestCompareVerdicts(t *testing.T) {
	qps := metricDef{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.10}
	lat := metricDef{Name: "lat", Unit: "us", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		a, b e2eValue
		d    metricDef
		want string
	}{
		{e2eValue{Median: 100, Spread: 0.02}, e2eValue{Median: 95, Spread: 0.02}, qps, "ok"},
		{e2eValue{Median: 100, Spread: 0.02}, e2eValue{Median: 85, Spread: 0.02}, qps, "REGRESSED"},
		{e2eValue{Median: 100, Spread: 0.02}, e2eValue{Median: 130, Spread: 0.02}, qps, "ok"},
		{e2eValue{Median: 100, Spread: 0.02}, e2eValue{Median: 115, Spread: 0.02}, lat, "REGRESSED"},
		{e2eValue{Median: 100, Spread: 0.02}, e2eValue{Median: 85, Spread: 0.30}, qps, "unresolved"},
		{e2eValue{Median: 100, Spread: 0.12}, e2eValue{Median: 100, Spread: 0.02}, lat, "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.d); got != c.want {
			t.Errorf("verdict(%v → %v, %s) = %s, want %s", c.a.Median, c.b.Median, c.d.Name, got, c.want)
		}
	}

	dir := t.TempDir()
	mk := func(name string, qps float64) string {
		rep := report{Workloads: map[string]*workloadReport{"float_small": {Untraced: &runResult{
			Attempted: 10, EndToEnd: map[string]e2eValue{"qps": {Median: qps, Spread: 0.01, Unit: "1/s"}}}}}}
		path := filepath.Join(dir, name)
		if err := writeJSONFile(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := mk("a.json", 1000), mk("b.json", 700)
	var out bytes.Buffer
	if code := compareReports(&out, a, b); code != 1 || !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("a 30%% drop in qps: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareReports(&out, a, a); code != 0 || strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("a report against itself: exit %d\n%s", code, out.String())
	}
	if code := realMain([]string{"-compare", a}, &out); code != 2 {
		t.Errorf("-compare with one file: exit %d, want 2", code)
	}
}

// BENCHMARK.json at the repository root must say what the tables here say.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" || len(doc.Command) == 0 || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, command %v, run_seconds %d", doc.Paths, doc.Command, doc.RunSeconds)
	}
	specs := fullSpecs()
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(specs))
	}
	for i, s := range specs {
		if doc.Workloads[i].Name != s.Name || doc.Workloads[i].Why != s.Why || len(s.Why) > 200 {
			t.Errorf("workload %d: %+v, want %s: %s", i, doc.Workloads[i], s.Name, s.Why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: %+v, want %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || d.Bound > 0.25 {
			t.Errorf("metric %+v breaks a limit or repeats a name", d)
		}
		seen[d.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}
