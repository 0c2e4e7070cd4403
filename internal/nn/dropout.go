package nn

import "math/rand"

// Dropout implements inverted dropout (Srivastava et al. 2014): during
// training each activation is zeroed independently with probability P and the
// survivors are scaled by 1/(1-P), so inference is the identity. The paper
// uses P = 0.1 on the neural-network architecture.
type Dropout struct {
	P   float64
	rng *rand.Rand
}

// NewDropout constructs a Dropout layer with drop probability p in [0, 1).
func NewDropout(p float64, rng *rand.Rand) *Dropout {
	if p < 0 || p >= 1 {
		panic("nn: dropout probability must be in [0,1)")
	}
	return &Dropout{P: p, rng: rng}
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// OutDim implements Layer.
func (d *Dropout) OutDim(inDim int) int { return inDim }
