package nn

import (
	"math"
	"math/rand"

	"repro/internal/par"
	"repro/internal/tensor"
)

// Sequential chains layers into a feed-forward model producing logits.
// Probabilities are obtained by applying Softmax to the logits; training
// losses in this package consume logits directly for numerical stability.
type Sequential struct {
	Layers []Layer
	InDim  int
}

// NewSequential builds a model over inDim-wide inputs from the given layers.
func NewSequential(inDim int, layers ...Layer) *Sequential {
	return &Sequential{Layers: layers, InDim: inDim}
}

// NewMLP builds the paper's neural-network architecture: for each hidden
// width h: Dense(h) → BatchNorm → ReLU → Dropout(p), followed by a final
// Dense(outDim) producing logits over the m bins.
func NewMLP(inDim int, hidden []int, outDim int, dropout float64, rng *rand.Rand) *Sequential {
	var layers []Layer
	prev := inDim
	for _, h := range hidden {
		layers = append(layers,
			NewDense(prev, h, rng),
			NewBatchNorm(h),
			NewReLU(),
		)
		if dropout > 0 {
			layers = append(layers, NewDropout(dropout, rng))
		}
		prev = h
	}
	layers = append(layers, NewDense(prev, outDim, rng))
	return NewSequential(inDim, layers...)
}

// NewLogistic builds the paper's logistic-regression architecture: a single
// Dense layer producing logits (softmax applied downstream). With outDim = 2
// this is the binary splitter used in the tree experiments (Fig. 6).
func NewLogistic(inDim, outDim int, rng *rand.Rand) *Sequential {
	return NewSequential(inDim, NewDense(inDim, outDim, rng))
}

// OutDim returns the model's output width (number of bins).
func (s *Sequential) OutDim() int {
	d := s.InDim
	for _, l := range s.Layers {
		d = l.OutDim(d)
	}
	return d
}

// Params returns all trainable parameters in layer order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the total number of scalar learnable parameters
// (the quantity reported in Table 2 of the paper).
func (s *Sequential) NumParams() int {
	total := 0
	for _, p := range s.Params() {
		total += p.Size()
	}
	return total
}

// ZeroGrads clears all accumulated parameter gradients. It walks the
// layers rather than Params, which builds a list.
func (s *Sequential) ZeroGrads() {
	for _, l := range s.Layers {
		switch ly := l.(type) {
		case *Dense:
			ly.W.Grad.Zero()
			ly.B.Grad.Zero()
		case *BatchNorm:
			ly.Gamma.Grad.Zero()
			ly.Beta.Grad.Zero()
		}
	}
}

// Predict returns the bin probabilities of every row of x: the allocating
// form of PredictBatchInto (running batch-norm statistics, dropout off).
func (s *Sequential) Predict(x *tensor.Matrix) *tensor.Matrix {
	var sc InferScratch
	return tensor.FromSlice(x.Rows, s.OutDim(), s.PredictBatchInto(nil, x, &sc))
}

// PredictVec returns the bin probabilities of one vector: the allocating
// form of PredictVecInto.
func (s *Sequential) PredictVec(v []float32) []float32 {
	var sc InferScratch
	return s.PredictVecInto(nil, v, &sc)
}

// SoftmaxRows converts each row of logits to a probability distribution in
// place (see softmaxRow).
func SoftmaxRows(m *tensor.Matrix) {
	par.ForChunks(m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			softmaxRow(m.Row(i))
		}
	})
}

// softmaxRow converts one row of logits to a probability distribution in
// place using the max-subtraction trick for stability (float64 sum). A row
// whose maximum is infinite gets the limit of softmax instead of the NaN
// Inf − Inf would give: uniform over the entries equal to the maximum, 0
// elsewhere (for an all −Inf row, uniform over the row).
func softmaxRow(row []float32) {
	maxv := row[0]
	for _, v := range row[1:] {
		if v > maxv {
			maxv = v
		}
	}
	if math.IsInf(float64(maxv), 0) {
		for j, v := range row {
			row[j] = float32(math.Inf(-1))
			if v == maxv {
				row[j] = 0
			}
		}
		maxv = 0
	}
	var sum float64
	for j, v := range row {
		e := math.Exp(float64(v - maxv))
		row[j] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for j := range row {
		row[j] *= inv
	}
}

// LogSoftmaxRow computes log-softmax of one logits row into dst (float64 for
// downstream loss accumulation). A row whose maximum is infinite takes
// softmaxRow's limit: the c entries equal to the maximum get −log c, every
// other entry −Inf (an all −Inf row gets −log m everywhere), where
// subtracting the maximum would give Inf − Inf = NaN.
func LogSoftmaxRow(dst []float64, row []float32) {
	maxv := row[0]
	for _, v := range row[1:] {
		if v > maxv {
			maxv = v
		}
	}
	if math.IsInf(float64(maxv), 0) {
		c := 0
		for _, v := range row {
			if v == maxv {
				c++
			}
		}
		logP := -math.Log(float64(c))
		for j, v := range row {
			dst[j] = math.Inf(-1)
			if v == maxv {
				dst[j] = logP
			}
		}
		return
	}
	var sum float64
	for _, v := range row {
		sum += math.Exp(float64(v - maxv))
	}
	logSum := math.Log(sum) + float64(maxv)
	for j, v := range row {
		dst[j] = float64(v) - logSum
	}
}
