package experiments

import (
	"runtime"
	"strings"
	"testing"
)

// tinyScale keeps the full-pipeline tests fast: every experiment still
// exercises its real code path end to end.
func tinyScale() Scale {
	return Scale{
		SIFTN: 500, MNISTN: 400, Queries: 30,
		Epochs: 6, Ensemble: 2, Hidden: 16, NLSHHidden: 16,
		TreeDepth: 3, Seed: 1,
	}
}

func TestIDsStableAndComplete(t *testing.T) {
	ids := IDs()
	want := []string{
		"fig5a", "fig5b", "fig5c", "fig5d", "fig6a", "fig6b", "fig7a", "fig7b",
		"table2", "table3", "table4", "table5",
		"ablation_arch", "ablation_batch",
		"ablation_ensemble", "ablation_eta", "ablation_kprime",
	}
	if len(ids) != len(want) {
		t.Fatalf("have %d ids: %v", len(ids), ids)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	for _, w := range want {
		if !seen[w] {
			t.Fatalf("missing id %s", w)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope", tinyScale(), nil); err == nil {
		t.Fatal("unknown id should fail")
	}
}

func TestProbeSchedule(t *testing.T) {
	ps := probeSchedule(16)
	if ps[0] != 1 || ps[len(ps)-1] != 16 {
		t.Fatalf("schedule %v", ps)
	}
	for i := 1; i < len(ps); i++ {
		if ps[i] <= ps[i-1] {
			t.Fatalf("schedule not strictly increasing: %v", ps)
		}
	}
}

func TestEtaFor(t *testing.T) {
	if etaFor("mnist", 256) != 30 || etaFor("sift", 256) != 10 ||
		etaFor("sift", 16) != 7 || etaFor("mnist", 16) != 7 {
		t.Fatal("etaFor does not match Table 3")
	}
}

func TestFig5EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment pipeline")
	}
	rep, err := Run("fig5a", tinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 4 {
		t.Fatalf("series = %d", len(rep.Series))
	}
	for _, s := range rep.Series {
		last := s.Points[len(s.Points)-1]
		// Probing all bins must reach recall 1 with |C| = n.
		if last.Recall != 1 {
			t.Fatalf("%s: full-probe recall %v", s.Name, last.Recall)
		}
	}
	if !strings.Contains(rep.Text, "Fig 5") {
		t.Fatal("missing title")
	}
}

func TestFig6EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment pipeline")
	}
	rep, err := Run("fig6a", tinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 7 {
		t.Fatalf("series = %d (want 7 tree methods)", len(rep.Series))
	}
}

func TestFig7EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment pipeline")
	}
	rep, err := Run("fig7a", tinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 5 {
		t.Fatalf("series = %d (want 5 ANNS methods)", len(rep.Series))
	}
	// Vanilla ScaNN scans everything: recall must be high.
	for _, s := range rep.Series {
		if s.Name == "ScaNN (vanilla)" && s.Points[0].Recall < 0.75 {
			t.Fatalf("vanilla ScaNN recall %v", s.Points[0].Recall)
		}
	}
}

func TestTable2(t *testing.T) {
	rep, err := Run("table2", tinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Neural LSH", "USP (ours)", "K-means", "32768"} {
		if !strings.Contains(rep.Text, frag) {
			t.Fatalf("table2 missing %q:\n%s", frag, rep.Text)
		}
	}
}

func TestTable4EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment pipeline")
	}
	rep, err := Run("table4", tinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text, "reduction vs Neural LSH") {
		t.Fatalf("table4 text:\n%s", rep.Text)
	}
}

func TestTable5EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment pipeline")
	}
	rep, err := Run("table5", tinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"moons", "circles", "blobs4", "DBSCAN", "Spectral"} {
		if !strings.Contains(rep.Text, frag) {
			t.Fatalf("table5 missing %q", frag)
		}
	}
}

// TestSeriesDependOnlyOnScale: an experiment's series is a function of its
// Scale. Run once on one core and once on all of them, every point's probe
// count, candidate count and recall must agree; timings may not.
func TestSeriesDependOnlyOnScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment pipeline")
	}
	for _, id := range []string{"fig5a", "fig5c", "fig6a", "fig7a", "table4"} {
		prev := runtime.GOMAXPROCS(1)
		one, err := Run(id, tinyScale(), nil)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		all, err := Run(id, tinyScale(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(one.Series) != len(all.Series) {
			t.Fatalf("%s: %d series, then %d", id, len(one.Series), len(all.Series))
		}
		for si, s := range one.Series {
			other := all.Series[si]
			if s.Name != other.Name || len(s.Points) != len(other.Points) {
				t.Fatalf("%s: series %d is %q with %d points, then %q with %d", id, si, s.Name, len(s.Points), other.Name, len(other.Points))
			}
			for pi, p := range s.Points {
				q := other.Points[pi]
				if p.Probes != q.Probes || p.AvgCandidates != q.AvgCandidates || p.Recall != q.Recall {
					t.Fatalf("%s %q point %d: GOMAXPROCS=1 gives (%d, %v, %v), GOMAXPROCS=%d gives (%d, %v, %v)",
						id, s.Name, pi, p.Probes, p.AvgCandidates, p.Recall, prev, q.Probes, q.AvgCandidates, q.Recall)
				}
			}
		}
	}
}
