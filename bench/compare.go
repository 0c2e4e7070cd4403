package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// worsening is how much worse b is than a, as a share of a, for a metric
// whose better direction is given: positive means worse.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict judges b against a for one metric: "ok" when b is no worse than a
// by more than the bound, "REGRESSED" when it is, and "unresolved" when
// either side's own spread is wider than the bound, so that the difference
// cannot be told from noise.
func verdict(a, b e2eValue, d metricDef) string {
	switch {
	case a.Spread > d.Bound || b.Spread > d.Bound:
		return "unresolved"
	case worsening(a.Median, b.Median, d.Better) > d.Bound:
		return "REGRESSED"
	}
	return "ok"
}

// compareReports prints, per workload and end-to-end metric, both medians
// and spreads, the change against the metric's bound, and a verdict. It
// returns 1 if any metric regressed, else 0; 2 if a file cannot be read.
func compareReports(w io.Writer, pathA, pathB string) int {
	a, err := readReport(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readReport(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(w, "A: %s  commit %s  seed %d  %s  %d CPUs\n", pathA, a.Env.Commit, a.Env.Seed, a.Env.Kernels, a.Env.NumCPU)
	fmt.Fprintf(w, "B: %s  commit %s  seed %d  %s  %d CPUs\n", pathB, b.Env.Commit, b.Env.Seed, b.Env.Kernels, b.Env.NumCPU)
	fmt.Fprintf(w, "%-12s %-13s %14s %8s %14s %8s %9s %7s  %s\n",
		"workload", "metric", "A median", "A spread", "B median", "B spread", "B worse", "bound", "verdict")
	code := 0
	for _, spec := range fullSpecs() {
		wa, wb := a.Workloads[spec.Name], b.Workloads[spec.Name]
		if wa == nil || wb == nil || wa.Untraced == nil || wb.Untraced == nil {
			continue
		}
		for _, d := range endToEnd {
			va, vb := wa.Untraced.EndToEnd[d.Name], wb.Untraced.EndToEnd[d.Name]
			v := verdict(va, vb, d)
			if v == "REGRESSED" {
				code = 1
			}
			fmt.Fprintf(w, "%-12s %-13s %14.4f %7.2f%% %14.4f %7.2f%% %+8.2f%% %6.1f%%  %s\n",
				spec.Name, d.Name, va.Median, 100*va.Spread, vb.Median, 100*vb.Spread,
				100*worsening(va.Median, vb.Median, d.Better), 100*d.Bound, v)
		}
		fa, fb := wa.Untraced, wb.Untraced
		v := "ok"
		if fb.FailRatio > fa.FailRatio {
			v, code = "REGRESSED", 1
		}
		fmt.Fprintf(w, "%-12s %-13s %7d/%-7d %7s %7d/%-7d %7s %9s %7s  %s\n",
			spec.Name, "fail_ratio", fa.Failed, fa.Attempted, "", fb.Failed, fb.Attempted, "", "", "any", v)
	}
	return code
}
