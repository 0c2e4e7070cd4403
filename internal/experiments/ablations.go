package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
)

// The ablations quantify the parameter discussion of §5.1.4: how k′, η, the
// ensemble size, the mini-batch fraction, and the model architecture move
// the accuracy-vs-candidates trade-off. Each sweeps one knob on the SIFT
// stand-in with 16 bins and reports recall at 1 and 2 probes.

// ablationRow trains one configuration and measures it.
func ablationRow(b *bench, cfg core.Config, ensemble int, label string) (eval.Series, error) {
	ens, _, err := core.TrainEnsemble(b.base, b.mat, cfg, ensemble)
	if err != nil {
		return eval.Series{}, err
	}
	return eval.SweepCandidates(b.base, b.queries, b.gt, 10, uspMethod(label, ens), []int{1, 2, 4}), nil
}

func baseCfg(sc Scale) core.Config {
	return core.Config{
		Bins: 16, KPrime: 10, Eta: 7, Epochs: sc.Epochs,
		Hidden: []int{sc.Hidden}, Dropout: 0.1, Seed: sc.Seed,
	}
}

func renderAblation(id, title string, series []eval.Series) *Report {
	return &Report{ID: id, Text: eval.RenderSeries(title, series), Series: series}
}

// ablationKPrime varies the k′-NN matrix width (§5.1.4 item 1; paper:
// k′ = 10 suffices, larger values add little).
func ablationKPrime(sc Scale, logf logfn) (*Report, error) {
	b := makeBench("sift", sc, 10, 20)
	var series []eval.Series
	for _, kp := range []int{2, 5, 10, 20} {
		logf("ablation_kprime: k'=%d", kp)
		cfg := baseCfg(sc)
		cfg.KPrime = kp
		s, err := ablationRow(b, cfg, 1, fmt.Sprintf("k'=%d", kp))
		if err != nil {
			return nil, err
		}
		series = append(series, s)
	}
	return renderAblation("ablation_kprime", "Ablation: k' (SIFT-like, 16 bins, single model)", series), nil
}

// ablationEta varies the balance weight (§5.1.4 item 5): low η lets bins
// collapse (tiny |C|, low recall at matched probes); high η fights the
// quality term.
func ablationEta(sc Scale, logf logfn) (*Report, error) {
	b := makeBench("sift", sc, 10, 10)
	var series []eval.Series
	for _, eta := range []float64{0, 1, 7, 30, 100} {
		logf("ablation_eta: eta=%g", eta)
		cfg := baseCfg(sc)
		cfg.Eta = eta
		s, err := ablationRow(b, cfg, 1, fmt.Sprintf("eta=%g", eta))
		if err != nil {
			return nil, err
		}
		series = append(series, s)
	}
	return renderAblation("ablation_eta", "Ablation: eta (SIFT-like, 16 bins, single model)", series), nil
}

// ablationEnsemble varies e (§5.1.4 item 3; paper: ~10% gain by e=3).
func ablationEnsemble(sc Scale, logf logfn) (*Report, error) {
	b := makeBench("sift", sc, 10, 10)
	var series []eval.Series
	for _, e := range []int{1, 2, 3, 4} {
		logf("ablation_ensemble: e=%d", e)
		s, err := ablationRow(b, baseCfg(sc), e, fmt.Sprintf("e=%d", e))
		if err != nil {
			return nil, err
		}
		series = append(series, s)
	}
	return renderAblation("ablation_ensemble", "Ablation: ensemble size (SIFT-like, 16 bins)", series), nil
}

// ablationBatch varies the mini-batch fraction (§4.2.2: ≈4% of the dataset
// per batch suffices).
func ablationBatch(sc Scale, logf logfn) (*Report, error) {
	b := makeBench("sift", sc, 10, 10)
	var series []eval.Series
	for _, frac := range []float64{0.01, 0.04, 0.15, 0.5} {
		bs := int(frac * float64(b.base.N))
		if bs < 16 {
			bs = 16
		}
		logf("ablation_batch: %.0f%% (%d points)", frac*100, bs)
		cfg := baseCfg(sc)
		cfg.BatchSize = bs
		s, err := ablationRow(b, cfg, 1, fmt.Sprintf("batch=%.0f%%", frac*100))
		if err != nil {
			return nil, err
		}
		series = append(series, s)
	}
	return renderAblation("ablation_batch", "Ablation: mini-batch fraction (SIFT-like, 16 bins)", series), nil
}

// ablationBalance is the design-choice ablation DESIGN.md calls out: the
// paper's top-window computational cost (Eqs. 12–13) against the smoother
// batch-entropy balance regularizer common in deep clustering, at matched η
// and a no-balance control.
func ablationBalance(sc Scale, logf logfn) (*Report, error) {
	b := makeBench("sift", sc, 10, 10)
	var series []eval.Series
	type variant struct {
		label   string
		eta     float64
		entropy bool
	}
	for _, v := range []variant{
		{"window eta=7", 7, false},
		{"entropy eta=7", 7, true},
		{"entropy eta=30", 30, true},
		{"no balance (eta=0)", 0, false},
	} {
		logf("ablation_balance: %s", v.label)
		cfg := baseCfg(sc)
		cfg.Eta = v.eta
		cfg.EntropyBalance = v.entropy
		s, err := ablationRow(b, cfg, 1, v.label)
		if err != nil {
			return nil, err
		}
		series = append(series, s)
	}
	return renderAblation("ablation_balance",
		"Ablation: balance term (window vs entropy, SIFT-like, 16 bins)", series), nil
}

// ablationArch compares model architectures (§5.1.4 item 4): logistic
// regression vs MLPs of growing width.
func ablationArch(sc Scale, logf logfn) (*Report, error) {
	b := makeBench("sift", sc, 10, 10)
	type arch struct {
		label  string
		hidden []int
	}
	archs := []arch{
		{"logistic", nil},
		{"mlp-32", []int{32}},
		{fmt.Sprintf("mlp-%d", sc.Hidden), []int{sc.Hidden}},
		{fmt.Sprintf("mlp-%d-%d", sc.Hidden, sc.Hidden), []int{sc.Hidden, sc.Hidden}},
	}
	var series []eval.Series
	var b2 strings.Builder
	for _, a := range archs {
		logf("ablation_arch: %s", a.label)
		cfg := baseCfg(sc)
		cfg.Hidden = a.hidden
		if a.hidden == nil {
			cfg.Dropout = 0
		}
		ens, stats, err := core.TrainEnsemble(b.base, b.mat, cfg, 1)
		if err != nil {
			return nil, err
		}
		s := eval.SweepCandidates(b.base, b.queries, b.gt, 10, uspMethod(a.label, ens), []int{1, 2, 4})
		series = append(series, s)
		fmt.Fprintf(&b2, "%-14s params=%d\n", a.label, stats.TotalParams())
	}
	rep := renderAblation("ablation_arch", "Ablation: architecture (SIFT-like, 16 bins, single model)", series)
	rep.Text += b2.String()
	return rep, nil
}
