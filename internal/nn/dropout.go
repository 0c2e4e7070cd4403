package nn

import (
	"math/rand"

	"repro/internal/tensor"
)

// Dropout implements inverted dropout (Srivastava et al. 2014): during
// training each activation is zeroed independently with probability P and the
// survivors are scaled by 1/(1-P), so inference is the identity. The paper
// uses P = 0.1 on the neural-network architecture.
type Dropout struct {
	P   float64
	rng *rand.Rand

	mask []float32
}

// NewDropout constructs a Dropout layer with drop probability p in [0, 1).
func NewDropout(p float64, rng *rand.Rand) *Dropout {
	if p < 0 || p >= 1 {
		panic("nn: dropout probability must be in [0,1)")
	}
	return &Dropout{P: p, rng: rng}
}

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Matrix) *tensor.Matrix {
	if d.P == 0 {
		return x
	}
	y := tensor.New(x.Rows, x.Cols)
	if cap(d.mask) < len(x.Data) {
		d.mask = make([]float32, len(x.Data))
	}
	d.mask = d.mask[:len(x.Data)]
	scale := float32(1 / (1 - d.P))
	for i, v := range x.Data {
		if d.rng.Float64() < d.P {
			d.mask[i] = 0
		} else {
			d.mask[i] = scale
			y.Data[i] = v * scale
		}
	}
	return y
}

// Backward implements Layer.
func (d *Dropout) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if d.P == 0 {
		return gradOut
	}
	dX := tensor.New(gradOut.Rows, gradOut.Cols)
	for i, v := range gradOut.Data {
		dX.Data[i] = v * d.mask[i]
	}
	return dX
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// OutDim implements Layer.
func (d *Dropout) OutDim(inDim int) int { return inDim }
