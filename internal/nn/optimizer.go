package nn

import (
	"math"

	"repro/internal/tensor"
)

// Adam implements Kingma & Ba (2017) with bias correction; it is the
// optimizer the paper uses for both model architectures.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*Param]*tensor.Matrix
	v map[*Param]*tensor.Matrix
}

// NewAdam constructs an Adam optimizer with the standard default moments
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param]*tensor.Matrix),
		v: make(map[*Param]*tensor.Matrix),
	}
}

// Step updates params in place from their accumulated gradients. It
// consumes the gradients: the caller calls ZeroGrads before the next
// accumulation.
func (o *Adam) Step(params []*Param) {
	o.t++
	c1 := 1 - math.Pow(o.Beta1, float64(o.t))
	c2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		m := o.m[p]
		v := o.v[p]
		if m == nil {
			m = tensor.New(p.Value.Rows, p.Value.Cols)
			v = tensor.New(p.Value.Rows, p.Value.Cols)
			o.m[p] = m
			o.v[p] = v
		}
		b1, b2 := float32(o.Beta1), float32(o.Beta2)
		for i, g := range p.Grad.Data {
			m.Data[i] = b1*m.Data[i] + (1-b1)*g
			v.Data[i] = b2*v.Data[i] + (1-b2)*g*g
			mhat := float64(m.Data[i]) / c1
			vhat := float64(v.Data[i]) / c2
			p.Value.Data[i] -= float32(o.LR * mhat / (math.Sqrt(vhat) + o.Eps))
		}
	}
}
