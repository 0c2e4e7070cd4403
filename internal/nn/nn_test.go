package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
	"repro/internal/vecmath"
)

func TestSoftmaxRowsSumsToOne(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randInput(rng, 1+rng.Intn(10), 1+rng.Intn(10))
		for i := range m.Data {
			m.Data[i] *= 10 // include large logits for stability check
		}
		SoftmaxRows(m)
		for i := 0; i < m.Rows; i++ {
			var s float64
			for _, v := range m.Row(i) {
				if v < 0 || v > 1 || math.IsNaN(float64(v)) {
					return false
				}
				s += float64(v)
			}
			if math.Abs(s-1) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSoftmax_NumericalStability: large finite logits, and rows whose
// maximum is infinite, each give a distribution with no NaN — for an
// infinite maximum, the limit: uniform over the entries at the maximum.
func TestSoftmax_NumericalStability(t *testing.T) {
	inf := float32(math.Inf(1))
	for _, tc := range []struct {
		name       string
		row, probs []float32
	}{
		{"large", []float32{1000, 1001, 1002}, nil},
		{"one +Inf", []float32{1, inf, -3, 1e30}, []float32{0, 1, 0, 0}},
		{"several +Inf", []float32{inf, 2, inf, -inf, inf, inf}, []float32{0.25, 0, 0.25, 0, 0.25, 0.25}},
		{"all -Inf", []float32{-inf, -inf, -inf, -inf}, []float32{0.25, 0.25, 0.25, 0.25}},
	} {
		row := slices.Clone(tc.row)
		softmaxRow(row)
		var sum float64
		for _, p := range row {
			if math.IsNaN(float64(p)) || math.IsInf(float64(p), 0) || p < 0 || p > 1 {
				t.Fatalf("%s: bad prob %v in %v", tc.name, p, row)
			}
			sum += float64(p)
		}
		if math.Abs(sum-1) > probSumTol {
			t.Fatalf("%s: %v sums to %v", tc.name, row, sum)
		}
		if tc.probs != nil && !slices.Equal(row, tc.probs) {
			t.Fatalf("%s: %v, want %v", tc.name, row, tc.probs)
		}
	}
}

// TestLogSoftmax_NumericalStability: a row whose maximum logit is infinite
// gets the limit softmaxRow takes — log 1/c at the c entries equal to the
// maximum, −Inf elsewhere — and no NaN, so the losses built on it stay
// defined; a finite row is unchanged by the special case.
func TestLogSoftmax_NumericalStability(t *testing.T) {
	inf := float32(math.Inf(1))
	negInf := math.Inf(-1)
	for _, tc := range []struct {
		name string
		row  []float32
		want []float64
	}{
		{"one +Inf", []float32{1, inf, 2}, []float64{negInf, 0, negInf}},
		{"several +Inf", []float32{inf, 2, inf, -inf, inf, inf}, []float64{-math.Log(4), negInf, -math.Log(4), negInf, -math.Log(4), -math.Log(4)}},
		{"all -Inf", []float32{-inf, -inf, -inf}, []float64{-math.Log(3), -math.Log(3), -math.Log(3)}},
	} {
		dst := make([]float64, len(tc.row))
		LogSoftmaxRow(dst, tc.row)
		for j, v := range dst {
			if math.IsNaN(v) || v != tc.want[j] {
				t.Fatalf("%s: %v, want %v", tc.name, dst, tc.want)
			}
		}
		probs := slices.Clone(tc.row)
		softmaxRow(probs)
		for j, v := range dst {
			if float32(math.Exp(v)) != probs[j] {
				t.Fatalf("%s: exp(log-softmax) %v disagrees with softmax %v", tc.name, dst, probs)
			}
		}
	}
	// Losses on such a row stay finite where the target avoids the −Inf
	// entries.
	logits := tensor.FromSlice(1, 3, []float32{1, inf, 2})
	if loss, _ := CrossEntropy(logits, []int{1}); loss != 0 {
		t.Fatalf("CrossEntropy on the +Inf label = %v, want 0", loss)
	}
	res := USPLoss(logits, tensor.FromSlice(1, 3, []float32{0, 1, 0}), nil, 0)
	if math.IsNaN(res.Loss) || res.Loss != 0 {
		t.Fatalf("USPLoss on the +Inf bin = %v, want 0", res.Loss)
	}
	// A finite row keeps the general formula's bits.
	row := []float32{1000, 1001, 1002}
	dst := make([]float64, 3)
	LogSoftmaxRow(dst, row)
	var sum float64
	for _, v := range row {
		sum += math.Exp(float64(v - 1002))
	}
	for j, v := range row {
		if want := float64(v) - (math.Log(sum) + 1002); dst[j] != want {
			t.Fatalf("finite row: %v, want %v at %d", dst[j], want, j)
		}
	}
}

func TestLogSoftmaxConsistentWithSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	row := []float32{1.5, -2, 0.25, 3}
	dst := make([]float64, 4)
	LogSoftmaxRow(dst, row)
	m := tensor.FromSlice(1, len(row), append([]float32(nil), row...))
	SoftmaxRows(m)
	for j, lv := range dst {
		if math.Abs(math.Exp(lv)-float64(m.At(0, j))) > 1e-5 {
			t.Fatalf("exp(logsoftmax)[%d]=%v vs softmax %v", j, math.Exp(lv), m.At(0, j))
		}
	}
	_ = rng
}

func TestMLPShapesAndParamCount(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	model := NewMLP(128, []int{128}, 16, 0.1, rng)
	if got := model.OutDim(); got != 16 {
		t.Fatalf("OutDim = %d", got)
	}
	// Dense(128→128): 128*128+128; BN: 2*128; Dense(128→16): 128*16+16.
	want := 128*128 + 128 + 2*128 + 128*16 + 16
	if got := model.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
	x := randInput(rng, 5, 128)
	logits := model.Forward(x, &TrainScratch{})
	if logits.Rows != 5 || logits.Cols != 16 {
		t.Fatalf("logits shape %dx%d", logits.Rows, logits.Cols)
	}
}

func TestLogisticIsSingleLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lr := NewLogistic(10, 2, rng)
	if got := lr.NumParams(); got != 10*2+2 {
		t.Fatalf("logistic params = %d", got)
	}
}

func TestPredictRowsAreDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	model := NewMLP(6, []int{8}, 4, 0.1, rng)
	x := randInput(rng, 9, 6)
	p := model.Predict(x)
	for i := 0; i < p.Rows; i++ {
		var s float64
		for _, v := range p.Row(i) {
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-4 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
	pv := model.PredictVec(x.Row(0))
	for j, v := range pv {
		if math.Abs(float64(v-p.At(0, j))) > 1e-6 {
			t.Fatalf("PredictVec mismatch at %d", j)
		}
	}
}

func TestDropoutTrainEvalBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDropout(0.5, rng)
	x := randInput(rng, 50, 20)
	// Eval: the inference kernels pass dropout through, so a dropout-only
	// model predicts the softmax of its input.
	want := x.Clone()
	SoftmaxRows(want)
	if got := NewSequential(20, d).Predict(x); !tensor.Equalish(got, want, 0) {
		t.Fatal("eval-mode dropout should be the identity")
	}
	// Train: some zeros, survivors scaled by 2.
	yt := NewSequential(20, d).Forward(x, &TrainScratch{})
	zeros := 0
	for i, v := range yt.Data {
		if v == 0 {
			zeros++
		} else if math.Abs(float64(v-2*x.Data[i])) > 1e-6 {
			t.Fatalf("survivor not scaled: %v vs %v", v, x.Data[i])
		}
	}
	if zeros < 300 || zeros > 700 {
		t.Fatalf("dropped %d/1000, want ≈500", zeros)
	}
}

func TestDropoutPanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewDropout(1.0, rand.New(rand.NewSource(1)))
}

func TestBatchNormNormalizesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	bn := NewBatchNorm(3)
	x := randInput(rng, 256, 3)
	for i := 0; i < x.Rows; i++ { // shift/scale the raw data
		row := x.Row(i)
		row[0] = row[0]*5 + 10
		row[1] = row[1]*0.1 - 3
	}
	y := NewSequential(3, bn).Forward(x, &TrainScratch{})
	for j := 0; j < 3; j++ {
		var sum, sumSq float64
		for i := 0; i < y.Rows; i++ {
			v := float64(y.At(i, j))
			sum += v
			sumSq += v * v
		}
		mean := sum / float64(y.Rows)
		variance := sumSq/float64(y.Rows) - mean*mean
		if math.Abs(mean) > 1e-3 || math.Abs(variance-1) > 1e-2 {
			t.Fatalf("col %d: mean=%v var=%v after BN", j, mean, variance)
		}
	}
}

func TestBatchNormRunningStatsConverge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bn := NewBatchNorm(1)
	model := NewSequential(1, bn)
	var ts TrainScratch
	for it := 0; it < 200; it++ {
		x := tensor.New(64, 1)
		for i := range x.Data {
			x.Data[i] = float32(rng.NormFloat64()*2 + 5)
		}
		model.Forward(x, &ts)
	}
	if m := float64(bn.RunningMean.Data[0]); math.Abs(m-5) > 0.3 {
		t.Fatalf("running mean = %v, want ≈5", m)
	}
	if v := float64(bn.RunningVar.Data[0]); math.Abs(v-4) > 0.8 {
		t.Fatalf("running var = %v, want ≈4", v)
	}
}

func TestCrossEntropyDecreasesUnderTraining(t *testing.T) {
	// A small model must be able to overfit a tiny classification problem:
	// integration test of Forward/Backward/Adam working together.
	rng := rand.New(rand.NewSource(8))
	model := NewMLP(2, []int{16}, 3, 0, rng)
	opt := NewAdam(0.01)
	params := model.Params()
	var ts TrainScratch
	x := tensor.New(30, 2)
	labels := make([]int, 30)
	for i := 0; i < 30; i++ {
		c := i % 3
		labels[i] = c
		x.Set(i, 0, float32(c)*3+float32(rng.NormFloat64())*0.2)
		x.Set(i, 1, float32(c)*-2+float32(rng.NormFloat64())*0.2)
	}
	var first, last float64
	for epoch := 0; epoch < 150; epoch++ {
		model.ZeroGrads()
		logits := model.Forward(x, &ts)
		loss, grad := CrossEntropy(logits, labels)
		model.Backward(grad, &ts)
		opt.Step(params)
		if epoch == 0 {
			first = loss
		}
		last = loss
	}
	if last > first/10 || last > 0.2 {
		t.Fatalf("loss did not converge: first=%v last=%v", first, last)
	}
	// Training accuracy should be perfect on this separable toy set.
	pred := model.Predict(x)
	for i := range labels {
		if vecmath.ArgMax(pred.Row(i)) != labels[i] {
			t.Fatalf("point %d misclassified after training", i)
		}
	}
}

func TestAdamMovesTowardMinimum(t *testing.T) {
	// Minimize (w-3)^2 with gradient 2(w-3).
	p := newParam("w", 1, 1)
	o := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.Grad.Data[0] = 2 * (p.Value.Data[0] - 3)
		o.Step([]*Param{p})
	}
	if math.Abs(float64(p.Value.Data[0])-3) > 0.01 {
		t.Fatalf("Adam converged to %v, want 3", p.Value.Data[0])
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	model := NewMLP(7, []int{12}, 5, 0.1, rng)
	// Push some training through so BN stats are nontrivial.
	x := randInput(rng, 32, 7)
	model.Forward(x, &TrainScratch{})

	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumParams() != model.NumParams() {
		t.Fatalf("param count mismatch: %d vs %d", loaded.NumParams(), model.NumParams())
	}
	q := randInput(rng, 4, 7)
	a, b := model.Predict(q.Clone()), loaded.Predict(q.Clone())
	if !tensor.Equalish(a, b, 1e-6) {
		t.Fatal("loaded model predictions differ")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model")), nil); err == nil {
		t.Fatal("expected error")
	}
}

// TestLoadRejectsMisshapenLayers: a decodable model whose layers do not
// chain, or whose stored weights do not fill them, is an error at load
// rather than a panic at load or on the first input. So is one holding a
// non-finite parameter or statistic, or a running variance + ε that is not
// positive, which would turn every input into NaN outputs.
func TestLoadRejectsMisshapenLayers(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	good := modelSpec{InDim: 3, Layers: []layerSpec{
		{Kind: "dense", In: 3, Out: 2, W: make([]float32, 6), B: make([]float32, 2)},
		{Kind: "batchnorm", Dim: 2, Gamma: make([]float32, 2), Beta: make([]float32, 2), RunMean: make([]float32, 2), RunVar: make([]float32, 2), Eps: 1e-5},
		{Kind: "relu"},
		{Kind: "dropout", P: 0.1},
		{Kind: "dense", In: 2, Out: 4, W: make([]float32, 8), B: make([]float32, 4)},
	}}
	encode := func(s modelSpec) *bytes.Buffer {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(s); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	if m, err := Load(encode(good), nil); err != nil || m.OutDim() != 4 {
		t.Fatalf("well-formed model: %v", err)
	}
	for name, edit := range map[string]func(s *modelSpec){
		"no input":        func(s *modelSpec) { s.InDim = 0 },
		"dense input":     func(s *modelSpec) { s.Layers[4].In = 3 },
		"dense weights":   func(s *modelSpec) { s.Layers[0].W = s.Layers[0].W[:5] },
		"dense bias":      func(s *modelSpec) { s.Layers[4].B = nil },
		"dense no output": func(s *modelSpec) { s.Layers[0].Out, s.Layers[0].W, s.Layers[0].B = 0, nil, nil },
		"batchnorm width": func(s *modelSpec) { s.Layers[1].Dim = 3 },
		"batchnorm stats": func(s *modelSpec) { s.Layers[1].RunVar = s.Layers[1].RunVar[:1] },
		"dropout range":   func(s *modelSpec) { s.Layers[3].P = 1 },
		"dropout NaN":     func(s *modelSpec) { s.Layers[3].P = math.NaN() },
		"dense NaN W":     func(s *modelSpec) { s.Layers[0].W[4] = nan },
		"dense +Inf b":    func(s *modelSpec) { s.Layers[4].B[3] = inf },
		"batchnorm γ":     func(s *modelSpec) { s.Layers[1].Gamma[1] = nan },
		"batchnorm β":     func(s *modelSpec) { s.Layers[1].Beta[0] = -inf },
		"batchnorm mean":  func(s *modelSpec) { s.Layers[1].RunMean[1] = inf },
		"batchnorm var":   func(s *modelSpec) { s.Layers[1].RunVar[0] = nan },
		"variance + ε 0":  func(s *modelSpec) { s.Layers[1].Eps = 0 },
		"variance + ε <0": func(s *modelSpec) { s.Layers[1].RunVar[1] = -1 },
		"ε NaN":           func(s *modelSpec) { s.Layers[1].Eps = math.NaN() },
		"ε +Inf":          func(s *modelSpec) { s.Layers[1].Eps = math.Inf(1) },
	} {
		s := good
		s.Layers = make([]layerSpec, len(good.Layers))
		for i, l := range good.Layers { // a deep copy: edits write into the slices
			l.W, l.B = slices.Clone(l.W), slices.Clone(l.B)
			l.Gamma, l.Beta = slices.Clone(l.Gamma), slices.Clone(l.Beta)
			l.RunMean, l.RunVar = slices.Clone(l.RunMean), slices.Clone(l.RunVar)
			s.Layers[i] = l
		}
		edit(&s)
		if _, err := Load(encode(s), nil); err == nil {
			t.Fatalf("%s: misshapen model loaded", name)
		}
	}
}

func TestUSPLossBalanceFavorsBalancedAssignments(t *testing.T) {
	// The balance term S must be lower (better) for a balanced hard
	// assignment than for a collapsed one.
	mk := func(assign []int, m int) *tensor.Matrix {
		logits := tensor.New(len(assign), m)
		for i, a := range assign {
			for j := 0; j < m; j++ {
				if j == a {
					logits.Set(i, j, 8)
				} else {
					logits.Set(i, j, -8)
				}
			}
		}
		return logits
	}
	targets := tensor.New(8, 2)
	for i := 0; i < 8; i++ {
		targets.Set(i, 0, 1)
	}
	balanced := USPLoss(mk([]int{0, 1, 0, 1, 0, 1, 0, 1}, 2), targets, nil, 1)
	collapsed := USPLoss(mk([]int{0, 0, 0, 0, 0, 0, 0, 0}, 2), targets, nil, 1)
	if balanced.Balance >= collapsed.Balance {
		t.Fatalf("balance term: balanced %v should beat collapsed %v",
			balanced.Balance, collapsed.Balance)
	}
}

func TestUSPLossPerfectPartitionNearZeroQuality(t *testing.T) {
	// If the model's distribution equals the target exactly and is
	// near-one-hot, the quality CE is near zero.
	logits := tensor.FromSlice(2, 2, []float32{20, 0, 0, 20})
	targets := tensor.FromSlice(2, 2, []float32{1, 0, 0, 1})
	r := USPLoss(logits, targets, nil, 0)
	if r.Quality > 1e-6 {
		t.Fatalf("quality = %v, want ≈0", r.Quality)
	}
}

func TestCrossEntropyLabelOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	CrossEntropy(tensor.New(1, 2), []int{5})
}

func TestZeroWeightsDoNotNaN(t *testing.T) {
	logits := randInput(rand.New(rand.NewSource(11)), 3, 2)
	targets := randSoftTargets(rand.New(rand.NewSource(12)), 3, 2)
	r := USPLoss(logits, targets, []float32{0, 0, 0}, 1)
	if math.IsNaN(r.Loss) || math.IsInf(r.Loss, 0) {
		t.Fatalf("loss = %v with zero weights", r.Loss)
	}
}
