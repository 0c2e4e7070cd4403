package eval

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/vecmath"
)

func setup(seed int64) (*dataset.Dataset, *dataset.Dataset, [][]int32) {
	rng := rand.New(rand.NewSource(seed))
	full := dataset.Uniform(220, 4, rng)
	base, queries := dataset.SplitQueries(full, 20, rng)
	return base, queries, knn.GroundTruth(base, queries, 5)
}

// prefixMethod returns the first probes*20 points as candidates: recall and
// |C| both grow deterministically with probes.
func prefixMethod(base *dataset.Dataset) Method {
	return Method{
		Name: "prefix",
		Candidates: func(q []float32, probes int) []int {
			n := probes * 20
			if n > base.N {
				n = base.N
			}
			out := make([]int, n)
			for i := range out {
				out[i] = i
			}
			return out
		},
	}
}

func TestSweepCandidates(t *testing.T) {
	base, queries, gt := setup(1)
	s := SweepCandidates(base, queries, gt, 5, prefixMethod(base), []int{1, 5, 10})
	if len(s.Points) != 3 {
		t.Fatalf("points = %d", len(s.Points))
	}
	// |C| exact, recall monotone, final probe covers everything → recall 1.
	if s.Points[0].AvgCandidates != 20 || s.Points[1].AvgCandidates != 100 {
		t.Fatalf("candidates %v %v", s.Points[0].AvgCandidates, s.Points[1].AvgCandidates)
	}
	if s.Points[2].AvgCandidates != float64(base.N) {
		t.Fatalf("final |C| = %v", s.Points[2].AvgCandidates)
	}
	if s.Points[2].Recall != 1 {
		t.Fatalf("full recall = %v", s.Points[2].Recall)
	}
	for i := 1; i < 3; i++ {
		if s.Points[i].Recall < s.Points[i-1].Recall {
			t.Fatal("recall not monotone for nested candidates")
		}
	}
}

func TestSweepSearch(t *testing.T) {
	base, queries, gt := setup(2)
	m := SearchMethod{
		Name: "exact",
		Search: func(q []float32, k, probes int) ([]int, int) {
			return NeighborIDs(knn.Search(base, q, k)), base.N
		},
	}
	s := SweepSearch(queries, gt, 5, m, []int{1})
	if s.Points[0].Recall != 1 {
		t.Fatalf("exact search recall = %v", s.Points[0].Recall)
	}
	if s.Points[0].AvgCandidates != float64(base.N) {
		t.Fatalf("scored = %v", s.Points[0].AvgCandidates)
	}
}

func TestCandidatesAtRecall(t *testing.T) {
	s := Series{Name: "x", Points: []Point{
		{Probes: 1, AvgCandidates: 100, Recall: 0.5},
		{Probes: 2, AvgCandidates: 200, Recall: 0.9},
	}}
	c, ok := CandidatesAtRecall(s, 0.7)
	if !ok || c < 149 || c > 151 {
		t.Fatalf("interpolated |C| = %v ok=%v", c, ok)
	}
	// Below the curve: first point's candidates.
	if c, ok := CandidatesAtRecall(s, 0.3); !ok || c != 100 {
		t.Fatalf("low target: %v %v", c, ok)
	}
	// Unreachable target.
	if _, ok := CandidatesAtRecall(s, 0.95); ok {
		t.Fatal("unreachable target should fail")
	}
}

func TestRenderers(t *testing.T) {
	s := []Series{{Name: "m1", Points: []Point{{Probes: 1, AvgCandidates: 10, Recall: 0.5}}}}
	txt := RenderSeries("title", s)
	if !strings.Contains(txt, "title") || !strings.Contains(txt, "m1") {
		t.Fatalf("render: %s", txt)
	}
}

func TestNeighborIDs(t *testing.T) {
	ids := NeighborIDs([]vecmath.Neighbor{{Index: 3}, {Index: 1}})
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 1 {
		t.Fatalf("ids = %v", ids)
	}
}
