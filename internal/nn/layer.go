// Package nn is a from-scratch, CPU-only deep-learning stack: dense layers,
// batch normalization, dropout, ReLU, softmax utilities, cross-entropy and
// the paper's unsupervised partitioning loss, Glorot initialization, and the
// Adam optimizer, with binary serialization.
//
// It substitutes for the PyTorch dependency of the reference implementation
// (see DESIGN.md). Differentiation is layer-wise reverse mode over a static
// sequential graph: each Layer implements Forward and Backward with analytic
// gradients, verified against numeric differentiation in gradcheck_test.go.
// Inference does not go through Forward: it runs one allocation-free eval
// loop over packed rows, entered by PredictVecInto for one row and by
// PredictBatchInto for a matrix.
//
// All matrices are row-major with one sample per row (batch×features).
package nn

import (
	"fmt"
	"math"
	"math/rand"

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

// Layer is one differentiable stage of a sequential model.
//
// Forward consumes the previous layer's output in training mode: it caches
// the activations Backward needs and applies training-only behaviour
// (dropout masking, batch statistics). Backward consumes the gradient of the
// loss with respect to this layer's output and returns the gradient with
// respect to its input, accumulating parameter gradients as a side effect. A
// Backward call must follow a Forward call on the same batch. Evaluation
// (running statistics, no dropout) is the inference kernels' job; they know
// this package's four layer kinds, Dense, BatchNorm, ReLU and Dropout.
type Layer interface {
	Forward(x *tensor.Matrix) *tensor.Matrix
	Backward(gradOut *tensor.Matrix) *tensor.Matrix
	Params() []*Param
	// OutDim reports the layer's output width given its input width
	// (used for shape validation when assembling models).
	OutDim(inDim int) int
}

// Dense is a fully connected layer computing y = x·W + b,
// with W shaped in×out.
type Dense struct {
	W, B *Param

	x *tensor.Matrix // cached input for Backward
}

// NewDense constructs a Dense layer with Glorot-uniform initialized weights
// and zero biases.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{W: newParam("W", in, out), B: newParam("b", 1, out)}
	GlorotUniform(d.W.Value, rng)
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != d.W.Value.Rows {
		panic(fmt.Sprintf("nn: Dense input width %d, want %d", x.Cols, d.W.Value.Rows))
	}
	d.x = x
	y := tensor.New(x.Rows, d.W.Value.Cols)
	tensor.MatMul(y, x, d.W.Value)
	tensor.AddRowVector(y, d.B.Value.Data)
	return y
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	d.accumulateGrads(gradOut)
	// dX = dY·Wᵀ.
	dX := tensor.New(gradOut.Rows, d.W.Value.Rows)
	tensor.MatMulABT(dX, gradOut, d.W.Value)
	return dX
}

// accumulateGrads is Backward without the input gradient: it adds the
// batch's weight and bias gradients into the grad buffers. Sequential calls
// it for a first layer, whose input gradient nothing reads.
func (d *Dense) accumulateGrads(gradOut *tensor.Matrix) {
	if d.x == nil {
		panic("nn: Dense.Backward before Forward")
	}
	// dW += xᵀ·dY and db += column sums of dY, each added in place.
	tensor.AddMatMulATB(d.W.Grad, d.x, gradOut)
	tensor.ColSums(d.B.Grad.Data, gradOut)
	d.x = nil
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// OutDim implements Layer.
func (d *Dense) OutDim(int) int { return d.W.Value.Cols }

// ReLU applies max(0, x) elementwise.
type ReLU struct {
	mask []bool // true where input was > 0
}

// NewReLU constructs a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	y := tensor.New(x.Rows, x.Cols)
	if cap(r.mask) < len(x.Data) {
		r.mask = make([]bool, len(x.Data))
	}
	r.mask = r.mask[:len(x.Data)]
	for i, v := range x.Data {
		r.mask[i] = v > 0
		if v > 0 {
			y.Data[i] = v
		}
	}
	return y
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	dX := tensor.New(gradOut.Rows, gradOut.Cols)
	for i, v := range gradOut.Data {
		if r.mask[i] {
			dX.Data[i] = v
		}
	}
	return dX
}

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
