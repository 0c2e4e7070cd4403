// Package nn is a from-scratch, CPU-only deep-learning stack: dense layers,
// batch normalization, dropout, ReLU, softmax utilities, cross-entropy and
// the paper's unsupervised partitioning loss, Glorot initialization, and the
// Adam optimizer, with binary serialization.
//
// It substitutes for the PyTorch dependency of the reference implementation
// (see DESIGN.md). Differentiation is reverse mode over a static sequential
// graph of this package's four layer kinds, Dense, BatchNorm, ReLU and
// Dropout, with analytic gradients verified against numeric differentiation
// in gradcheck_test.go. A layer holds only its parameters: Sequential runs
// every kind through two loops, each one switch over the kinds. Training
// (Forward, Backward) keeps each batch's activations, x̂, inverse stds and
// dropout masks in a TrainScratch the caller owns; inference runs one
// allocation-free eval loop over packed rows, entered by PredictVecInto for
// one row and by PredictBatchInto for a matrix. Both compute a dense row the
// same way, by Dense.forwardRows.
//
// All matrices are row-major with one sample per row (batch×features).
package nn

import (
	"math"
	"math/rand"

	"repro/internal/par"
	"repro/internal/tensor"
)

// Param is a trainable parameter tensor together with its gradient
// accumulator. Adam.Step updates Value in place from Grad.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix
}

func newParam(name string, rows, cols int) *Param {
	return &Param{Name: name, Value: tensor.New(rows, cols), Grad: tensor.New(rows, cols)}
}

// Size returns the number of scalar parameters.
func (p *Param) Size() int { return p.Value.Rows * p.Value.Cols }

// Layer is one stage of a sequential model: a Dense, BatchNorm, ReLU or
// Dropout. Its computation lives in Sequential's training and eval loops;
// the layer itself reports its parameters and shape.
type Layer interface {
	Params() []*Param
	// OutDim reports the layer's output width given its input width
	// (used for shape validation when assembling models).
	OutDim(inDim int) int
}

// Dense is a fully connected layer computing y = x·W + b,
// with W shaped in×out.
type Dense struct {
	W, B *Param
}

// NewDense constructs a Dense layer with Glorot-uniform initialized weights
// and zero biases.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{W: newParam("W", in, out), B: newParam("b", 1, out)}
	GlorotUniform(d.W.Value, rng)
	return d
}

// splitRows is the row count from which a dense layer splits its rows
// across workers, tensor.MatMul's threshold: whole-dataset inference
// reaches it, and so do training batches that large.
const splitRows = 1024

// forwardRows computes dst = x·W + b for the rows packed in x, each in
// wide. Training and inference both run it, so a row carries the same bits
// whichever loop ran it and whatever rows shared its call.
func (d *Dense) forwardRows(dst, x []float32, in, rows int) {
	// The row count is checked first because par.Workers takes the
	// scheduler lock; the closure is made only where it runs, as it
	// escapes.
	if rows < splitRows || par.Workers() == 1 {
		d.mulRows(dst, x, in, 0, rows)
		return
	}
	par.ForChunks(rows, func(lo, hi int) { d.mulRows(dst, x, in, lo, hi) })
}

// mulRows computes rows [lo, hi) of forwardRows: each row one
// tensor.MulRowInto, then the bias add.
func (d *Dense) mulRows(dst, x []float32, in, lo, hi int) {
	out := d.W.Value.Cols
	for i := lo; i < hi; i++ {
		row := dst[i*out : (i+1)*out]
		tensor.MulRowInto(row, x[i*in:(i+1)*in], d.W.Value)
		for j, bv := range d.B.Value.Data {
			row[j] += bv
		}
	}
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// OutDim implements Layer.
func (d *Dense) OutDim(int) int { return d.W.Value.Cols }

// ReLU applies max(0, x) elementwise.
type ReLU struct{}

// NewReLU constructs a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// OutDim implements Layer.
func (r *ReLU) OutDim(inDim int) int { return inDim }

// GlorotUniform fills m with samples from U(-a, a) where
// a = sqrt(6/(fanIn+fanOut)), the initialization of Glorot & Bengio (2010)
// the paper specifies for both model architectures.
func GlorotUniform(m *tensor.Matrix, rng *rand.Rand) {
	a := math.Sqrt(6 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = float32((rng.Float64()*2 - 1) * a)
	}
}
