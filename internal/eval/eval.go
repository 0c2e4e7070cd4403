// Package eval is the measurement harness behind every figure and table:
// it sweeps a method's probe parameter, recording the k-NN accuracy
// (Eq. 1) against the average candidate-set size |C| and wall-clock query
// time, and renders the aligned ASCII tables of the reports that
// cmd/uspbench prints (DESIGN.md, "Experiment index").
package eval

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/vecmath"
)

// Method adapts any index to the sweep: Candidates produces the candidate
// ids for a query at a probe setting.
type Method struct {
	Name       string
	Candidates func(q []float32, probes int) []int
}

// SearchMethod adapts end-to-end searchers (ScaNN pipelines, HNSW, IVF-PQ)
// where the probe parameter tunes an internal knob and candidates are not
// exposed; Search returns the final k neighbors and the effective number of
// points scored.
type SearchMethod struct {
	Name   string
	Search func(q []float32, k, probes int) (ids []int, scored int)
}

// Point is one sweep measurement.
type Point struct {
	Probes        int
	AvgCandidates float64
	Recall        float64
	AvgQueryTime  time.Duration
}

// Series is a method's sweep curve.
type Series struct {
	Name   string
	Points []Point
}

// SweepCandidates measures a candidate-source method: for each probe count,
// average |C| and the k-NN accuracy of brute-force search within C.
func SweepCandidates(base, queries *dataset.Dataset, gt [][]int32, k int, m Method, probes []int) Series {
	s := Series{Name: m.Name}
	for _, p := range probes {
		var cand, recall float64
		start := time.Now()
		for qi := 0; qi < queries.N; qi++ {
			q := queries.Row(qi)
			c := m.Candidates(q, p)
			cand += float64(len(c))
			res := knn.SearchSubset(base, c, q, k)
			recall += knn.RecallNeighbors(res, gt[qi])
		}
		elapsed := time.Since(start)
		s.Points = append(s.Points, Point{
			Probes:        p,
			AvgCandidates: cand / float64(queries.N),
			Recall:        recall / float64(queries.N),
			AvgQueryTime:  elapsed / time.Duration(queries.N),
		})
	}
	return s
}

// SweepSearch measures an end-to-end searcher.
func SweepSearch(queries *dataset.Dataset, gt [][]int32, k int, m SearchMethod, probes []int) Series {
	s := Series{Name: m.Name}
	for _, p := range probes {
		var scored, recall float64
		start := time.Now()
		for qi := 0; qi < queries.N; qi++ {
			ids, sc := m.Search(queries.Row(qi), k, p)
			scored += float64(sc)
			recall += knn.Recall(ids, gt[qi])
		}
		elapsed := time.Since(start)
		s.Points = append(s.Points, Point{
			Probes:        p,
			AvgCandidates: scored / float64(queries.N),
			Recall:        recall / float64(queries.N),
			AvgQueryTime:  elapsed / time.Duration(queries.N),
		})
	}
	return s
}

// CandidatesAtRecall linearly interpolates the candidate-set size a series
// needs to reach the target recall; ok=false when the series never reaches
// it.
func CandidatesAtRecall(s Series, target float64) (float64, bool) {
	pts := append([]Point(nil), s.Points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Recall < pts[j].Recall })
	for i, p := range pts {
		if p.Recall >= target {
			if i == 0 {
				return p.AvgCandidates, true
			}
			lo := pts[i-1]
			frac := (target - lo.Recall) / (p.Recall - lo.Recall)
			return lo.AvgCandidates + frac*(p.AvgCandidates-lo.AvgCandidates), true
		}
	}
	return 0, false
}

// NeighborIDs converts a neighbor slice into bare ids (helper for
// SearchMethod adapters).
func NeighborIDs(ns []vecmath.Neighbor) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = n.Index
	}
	return out
}

// RenderSeries renders one or more series as an aligned ASCII table with a
// row per (method, probe) measurement — the textual form of the paper's
// accuracy-vs-candidates figures.
func RenderSeries(title string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	fmt.Fprintf(&b, "%-28s %8s %14s %10s %14s\n", "method", "probes", "avg |C|", "recall", "us/query")
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%-28s %8d %14.1f %10.4f %14.1f\n",
				s.Name, p.Probes, p.AvgCandidates, p.Recall,
				float64(p.AvgQueryTime.Nanoseconds())/1e3)
		}
	}
	return b.String()
}
