package nn

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// trainSteps trains a fresh NewMLP (BatchNorm and Dropout included) with one
// cross-entropy Adam step per batch size in rows. A nil ts gets a fresh
// scratch per step; otherwise ts is reused and poisoned with NaN after every
// step, so a loop that reads an element it did not write this batch shows.
func trainSteps(rows []int, ts *TrainScratch) *Sequential {
	rng := rand.New(rand.NewSource(21))
	model := NewMLP(16, []int{12}, 5, 0.1, rng)
	opt := NewAdam(1e-2)
	params := model.Params()
	data := rand.New(rand.NewSource(22))
	for _, n := range rows {
		x := randInput(data, n, 16)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = data.Intn(5)
		}
		step := ts
		if step == nil {
			step = &TrainScratch{}
		}
		model.ZeroGrads()
		_, grad := CrossEntropy(model.Forward(x, step), labels)
		model.Backward(grad, step)
		opt.Step(params)
		if ts != nil {
			poison(ts)
		}
	}
	return model
}

// poison fills every buffer of ts, to its capacity, with NaN.
func poison(ts *TrainScratch) {
	for i := range ts.layers {
		tl := &ts.layers[i]
		fillNaN(tl.out.Data)
		fillNaN(tl.xhat)
		fillNaN(tl.mask)
		invStd := tl.invStd[:cap(tl.invStd)]
		for j := range invStd {
			invStd[j] = math.NaN()
		}
	}
	fillNaN(ts.grad[0].Data)
	fillNaN(ts.grad[1].Data)
}

func fillNaN(buf []float32) {
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = float32(math.NaN())
	}
}

// modelBits returns every parameter and running statistic of s, as bits.
func modelBits(s *Sequential) []uint32 {
	var bits []uint32
	add := func(vals []float32) {
		for _, v := range vals {
			bits = append(bits, math.Float32bits(v))
		}
	}
	for _, p := range s.Params() {
		add(p.Value.Data)
	}
	for _, l := range s.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			add(bn.RunningMean.Data)
			add(bn.RunningVar.Data)
		}
	}
	return bits
}

// TestTrainScratchReuseLeaksNothing: training on one scratch, through
// batches that shrink and grow, ends with the bits of the same training on
// a fresh scratch per batch.
func TestTrainScratchReuseLeaksNothing(t *testing.T) {
	rows := []int{320, 7, 320, 2, 64}
	fresh := modelBits(trainSteps(rows, nil))
	reused := modelBits(trainSteps(rows, &TrainScratch{}))
	if !slices.Equal(fresh, reused) {
		for i := range fresh {
			if fresh[i] != reused[i] {
				t.Fatalf("value %d: %#x on a reused scratch, %#x on fresh ones", i, reused[i], fresh[i])
			}
		}
	}
	for _, b := range fresh {
		if math.IsNaN(float64(math.Float32frombits(b))) {
			t.Fatal("training produced NaN")
		}
	}
}

// TestDropoutDraws: a Dropout layer draws one rng.Float64 per element in
// row-major order, drops where the draw is below P and scales survivors by
// 1/(1−P), forward and backward; with P = 0 it passes both through and
// draws nothing.
func TestDropoutDraws(t *testing.T) {
	x := randInput(rand.New(rand.NewSource(1)), 6, 5)
	g := randInput(rand.New(rand.NewSource(2)), 6, 5)
	for _, p := range []float64{0, 0.3} {
		// Dropout between two Dense layers, so Backward forms its input
		// gradient; the first Dense is the identity.
		rng := rand.New(rand.NewSource(3))
		id := NewDense(5, 5, rng)
		clear(id.W.Value.Data)
		for i := range 5 {
			id.W.Value.Set(i, i, 1)
		}
		model := NewSequential(5, id, NewDropout(p, rand.New(rand.NewSource(4))), NewDense(5, 5, rng))
		var ts TrainScratch
		model.Forward(x, &ts)
		model.Backward(g, &ts)

		replay := rand.New(rand.NewSource(4))
		scale := float32(1 / (1 - p))
		// Backward wrote the gradient of the dropout's output to grad[0] and,
		// for P > 0, its input gradient to grad[1].
		out, gOut, dx := ts.layers[1].out.Data, ts.grad[0].Data, ts.grad[1].Data
		if p == 0 {
			dx = gOut
		}
		for i, v := range x.Data {
			wantOut, wantMask := v, float32(1)
			if p > 0 {
				wantOut, wantMask = v*scale, scale
				if replay.Float64() < p {
					wantOut, wantMask = 0, 0
				}
			}
			if math.Float32bits(out[i]) != math.Float32bits(wantOut) {
				t.Fatalf("P=%v: output %d is %v, want %v", p, i, out[i], wantOut)
			}
			if math.Float32bits(dx[i]) != math.Float32bits(gOut[i]*wantMask) {
				t.Fatalf("P=%v: gradient %d is %v, want %v", p, i, dx[i], gOut[i]*wantMask)
			}
		}
		// The first Dense got that input gradient: dW = xᵀ·dx.
		dW := tensor.New(5, 5)
		tensor.AddMatMulATB(dW, x, tensor.FromSlice(6, 5, dx))
		if !slices.Equal(id.W.Grad.Data, dW.Data) {
			t.Fatalf("P=%v: first layer's dW %v, want %v", p, id.W.Grad.Data, dW.Data)
		}
		// The layer's rng must be where the replay is: one draw per element
		// for P > 0, none for P = 0.
		layerRNG := model.Layers[1].(*Dropout).rng
		if got, want := layerRNG.Int63(), replay.Int63(); got != want {
			t.Fatalf("P=%v: dropout rng drew a different number of values", p)
		}
	}
}

// TestTrainStepExact runs one training step of a small-integer
// Dense→ReLU→Dense on a 2-row batch, where every value is exact in float32,
// and checks the logits and both layers' gradients at tolerance 0.
func TestTrainStepExact(t *testing.T) {
	d1 := &Dense{W: newParam("W", 2, 3), B: newParam("b", 1, 3)}
	copy(d1.W.Value.Data, []float32{1, -1, 2, 0, 1, -1})
	copy(d1.B.Value.Data, []float32{0, 1, -1})
	d2 := &Dense{W: newParam("W", 3, 2), B: newParam("b", 1, 2)}
	copy(d2.W.Value.Data, []float32{1, 2, -1, 0, 2, 1})
	copy(d2.B.Value.Data, []float32{1, 1})
	model := NewSequential(2, d1, NewReLU(), d2)

	x := tensor.FromSlice(2, 2, []float32{1, 2, 3, -1})
	// Pre-activations [1 2 -1; 3 -3 6], after ReLU [1 2 0; 3 0 6].
	var ts TrainScratch
	logits := model.Forward(x, &ts)
	if want := []float32{0, 3, 16, 13}; logits.Rows != 2 || logits.Cols != 2 || !slices.Equal(logits.Data, want) {
		t.Fatalf("logits %v (%dx%d), want %v", logits.Data, logits.Rows, logits.Cols, want)
	}

	// dW2 = hᵀ·g, db2 = Σ g; dh = g·W2ᵀ = [-1 -1 1; 4 -2 5], masked by
	// ReLU to [-1 -1 0; 4 0 5]; dW1 = xᵀ·dh, db1 = Σ dh.
	g := tensor.FromSlice(2, 2, []float32{1, -1, 2, 1})
	want := map[string][]float32{
		"dW1": {11, -1, 15, -6, -2, -5},
		"db1": {3, -1, 5},
		"dW2": {7, 2, 2, -2, 12, 6},
		"db2": {3, 0},
	}
	got := map[string]*Param{"dW1": d1.W, "db1": d1.B, "dW2": d2.W, "db2": d2.B}
	for step := 1; step <= 2; step++ { // a second Backward adds into Grad
		// Backward must write every gradient element it reads, so the
		// second runs on gradient buffers left NaN.
		fillNaN(ts.grad[0].Data)
		fillNaN(ts.grad[1].Data)
		model.Backward(g, &ts)
		for name, p := range got {
			w := slices.Clone(want[name])
			for i := range w {
				w[i] *= float32(step)
			}
			if !slices.Equal(p.Grad.Data, w) {
				t.Fatalf("after %d Backward: %s = %v, want %v", step, name, p.Grad.Data, w)
			}
		}
	}
}

// TestReLUTrainsOnlyWherePositive: training's ReLU outputs 0 for a NaN
// input and passes the gradient exactly where its input is > 0.
func TestReLUTrainsOnlyWherePositive(t *testing.T) {
	d := &Dense{W: newParam("W", 4, 1), B: newParam("b", 1, 1)}
	copy(d.W.Value.Data, []float32{1, 2, 3, 4})
	model := NewSequential(4, NewReLU(), d)
	x := tensor.FromSlice(1, 4, []float32{float32(math.NaN()), -1, 0, 2})
	var ts TrainScratch
	if got := model.Forward(x, &ts).Data; !slices.Equal(got, []float32{8}) {
		t.Fatalf("logits %v, want [8]", got)
	}
	model.Backward(tensor.FromSlice(1, 1, []float32{1}), &ts)
	if got := d.W.Grad.Data; !slices.Equal(got, []float32{0, 0, 0, 2}) {
		t.Fatalf("dW %v, want [0 0 0 2]", got)
	}
	// The Dense formed dX = [1 2 3 4] in grad[0]; the ReLU's is grad[1].
	if got := ts.grad[1].Data; !slices.Equal(got, []float32{0, 0, 0, 4}) {
		t.Fatalf("ReLU input gradient %v, want [0 0 0 4]", got)
	}
}

// TestBatchNormTrainingPanicsOnOneRow: batch statistics need two rows.
func TestBatchNormTrainingPanicsOnOneRow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewSequential(3, NewBatchNorm(3)).Forward(tensor.New(1, 3), &TrainScratch{})
}

// TestTrainStepAllocs: at float_small's training shape (320 rows,
// 128→64→16, dropout 0.1) and one worker, once a batch has run, Forward
// allocates nothing and Forward+Backward under 8 KiB per batch; what is
// left is the per-call buffers of the gradient products.
func TestTrainStepAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(11))
	model := NewMLP(128, []int{64}, 16, 0.1, rng)
	x := randInput(rng, 320, 128)
	g := randInput(rng, 320, 16)
	var ts TrainScratch
	step := func() {
		model.ZeroGrads()
		model.Forward(x, &ts)
		model.Backward(g, &ts)
	}
	step() // grow the scratch
	if allocs := testing.AllocsPerRun(20, func() { model.Forward(x, &ts) }); allocs != 0 {
		t.Fatalf("Forward allocates %v per batch", allocs)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		step()
	}
	runtime.ReadMemStats(&after)
	perBatch := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := (after.Mallocs - before.Mallocs) / runs
	t.Logf("Forward+Backward: %d allocations, %d B per batch", allocs, perBatch)
	if perBatch >= 8<<10 {
		t.Fatalf("Forward+Backward allocates %d B per batch, want < 8 KiB", perBatch)
	}
}
