package nn

import "repro/internal/tensor"

// BatchNorm implements 1-D batch normalization (Ioffe & Szegedy 2015) over
// the feature axis: each column is standardized with batch statistics during
// training and with exponential running statistics at inference, then scaled
// and shifted by learned gamma and beta.
type BatchNorm struct {
	Gamma, Beta *Param

	// Running statistics used at inference, updated with Momentum during
	// training. Stored as 1×dim matrices so they serialize with the rest
	// of the state.
	RunningMean, RunningVar *tensor.Matrix
	Momentum                float64
	Eps                     float64
}

// NewBatchNorm constructs a BatchNorm layer over dim features with
// gamma = 1, beta = 0, momentum 0.1 and epsilon 1e-5 (PyTorch defaults, which
// the reference implementation relies on).
func NewBatchNorm(dim int) *BatchNorm {
	bn := &BatchNorm{
		Gamma:       newParam("gamma", 1, dim),
		Beta:        newParam("beta", 1, dim),
		RunningMean: tensor.New(1, dim),
		RunningVar:  tensor.New(1, dim),
		Momentum:    0.1,
		Eps:         1e-5,
	}
	for i := range bn.Gamma.Value.Data {
		bn.Gamma.Value.Data[i] = 1
		bn.RunningVar.Data[i] = 1
	}
	return bn
}

// Params implements Layer.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// OutDim implements Layer.
func (bn *BatchNorm) OutDim(inDim int) int { return inDim }
