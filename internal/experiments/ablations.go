package experiments

import (
	"fmt"
	"strings"

	usp "repro"
	"repro/internal/eval"
)

// The ablations quantify the parameter discussion of §5.1.4: how k′, η, the
// ensemble size, the mini-batch fraction, and the model architecture move
// the accuracy-vs-candidates trade-off. Each sweeps one knob on the SIFT
// stand-in with 16 bins and reports recall at 1, 2 and 4 probes.

// ablationRow builds one configuration and measures it.
func ablationRow(b *bench, opt usp.Options, label string) (eval.Series, *usp.Index, error) {
	ix, err := usp.Build(b.base.Rows(), opt)
	if err != nil {
		return eval.Series{}, nil, err
	}
	return eval.SweepCandidates(b.base, b.queries, b.gt, 10, eval.Method{
		Name: label, Candidates: uspCandidates(ix),
	}, []int{1, 2, 4}), ix, nil
}

// baseOptions is the single-model SIFT configuration each ablation varies.
func baseOptions(sc Scale) usp.Options {
	opt := uspOptions(sc, "sift", 16)
	opt.Ensemble = 1
	return opt
}

func renderAblation(id, title string, series []eval.Series) *Report {
	return &Report{ID: id, Text: eval.RenderSeries(title, series), Series: series}
}

// ablationKPrime varies the k′-NN matrix width (§5.1.4 item 1; paper:
// k′ = 10 suffices, larger values add little).
func ablationKPrime(sc Scale, logf logfn) (*Report, error) {
	b := makeBench("sift", sc, 10)
	var series []eval.Series
	for _, kp := range []int{2, 5, 10, 20} {
		logf("ablation_kprime: k'=%d", kp)
		opt := baseOptions(sc)
		opt.KPrime = kp
		s, _, err := ablationRow(b, opt, fmt.Sprintf("k'=%d", kp))
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
	b := makeBench("sift", sc, 10)
	var series []eval.Series
	for _, eta := range []float64{0, 1, 7, 30, 100} {
		logf("ablation_eta: eta=%g", eta)
		opt := baseOptions(sc)
		opt.Eta = usp.Float(eta)
		s, _, err := ablationRow(b, opt, fmt.Sprintf("eta=%g", eta))
		if err != nil {
			return nil, err
		}
		series = append(series, s)
	}
	return renderAblation("ablation_eta", "Ablation: eta (SIFT-like, 16 bins, single model)", series), nil
}

// ablationEnsemble varies e (§5.1.4 item 3; paper: ~10% gain by e=3).
func ablationEnsemble(sc Scale, logf logfn) (*Report, error) {
	b := makeBench("sift", sc, 10)
	var series []eval.Series
	for _, e := range []int{1, 2, 3, 4} {
		logf("ablation_ensemble: e=%d", e)
		opt := baseOptions(sc)
		opt.Ensemble = e
		s, _, err := ablationRow(b, opt, fmt.Sprintf("e=%d", e))
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
	b := makeBench("sift", sc, 10)
	var series []eval.Series
	for _, frac := range []float64{0.01, 0.04, 0.15, 0.5} {
		bs := int(frac * float64(b.base.N))
		if bs < 16 {
			bs = 16
		}
		logf("ablation_batch: %.0f%% (%d points)", frac*100, bs)
		opt := baseOptions(sc)
		opt.BatchSize = bs
		s, _, err := ablationRow(b, opt, fmt.Sprintf("batch=%.0f%%", frac*100))
		if err != nil {
			return nil, err
		}
		series = append(series, s)
	}
	return renderAblation("ablation_batch", "Ablation: mini-batch fraction (SIFT-like, 16 bins)", series), nil
}

// ablationArch compares model architectures (§5.1.4 item 4): logistic
// regression vs MLPs of growing width.
func ablationArch(sc Scale, logf logfn) (*Report, error) {
	b := makeBench("sift", sc, 10)
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
		opt := baseOptions(sc)
		opt.Hidden, opt.Logistic = a.hidden, a.hidden == nil
		s, ix, err := ablationRow(b, opt, a.label)
		if err != nil {
			return nil, err
		}
		series = append(series, s)
		fmt.Fprintf(&b2, "%-14s params=%d\n", a.label, ix.Stats().Params)
	}
	rep := renderAblation("ablation_arch", "Ablation: architecture (SIFT-like, 16 bins, single model)", series)
	rep.Text += b2.String()
	return rep, nil
}
