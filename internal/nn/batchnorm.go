package nn

import (
	"math"

	"repro/internal/tensor"
)

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

	// Backward caches.
	xhat    *tensor.Matrix
	invStd  []float64
	batchSz int
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

// Forward implements Layer. Batch statistics need at least two rows, so a
// one-row batch panics; callers skip such batches.
func (bn *BatchNorm) Forward(x *tensor.Matrix) *tensor.Matrix {
	dim := bn.Gamma.Value.Cols
	if x.Cols != dim {
		panic("nn: BatchNorm width mismatch")
	}
	if x.Rows < 2 {
		panic("nn: BatchNorm.Forward needs a batch of at least 2 rows")
	}
	y := tensor.New(x.Rows, x.Cols)
	n := float64(x.Rows)
	bn.batchSz = x.Rows
	bn.xhat = tensor.New(x.Rows, x.Cols)
	if cap(bn.invStd) < dim {
		bn.invStd = make([]float64, dim)
	}
	bn.invStd = bn.invStd[:dim]

	for j := 0; j < dim; j++ {
		var sum, sumSq float64
		for i := 0; i < x.Rows; i++ {
			v := float64(x.At(i, j))
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if variance < 0 {
			variance = 0 // guard against catastrophic cancellation
		}
		invStd := 1 / math.Sqrt(variance+bn.Eps)
		bn.invStd[j] = invStd

		g, b := float64(bn.Gamma.Value.Data[j]), float64(bn.Beta.Value.Data[j])
		for i := 0; i < x.Rows; i++ {
			xh := (float64(x.At(i, j)) - mean) * invStd
			bn.xhat.Set(i, j, float32(xh))
			y.Set(i, j, float32(xh*g+b))
		}

		// Update running statistics (unbiased variance, as PyTorch does).
		unbiased := variance * n / (n - 1)
		m := bn.Momentum
		bn.RunningMean.Data[j] = float32((1-m)*float64(bn.RunningMean.Data[j]) + m*mean)
		bn.RunningVar.Data[j] = float32((1-m)*float64(bn.RunningVar.Data[j]) + m*unbiased)
	}
	return y
}

// Backward implements Layer, using the standard batch-norm gradient:
//
//	dxhat_i = dy_i * gamma
//	dx_i = invStd/n * (n*dxhat_i - Σdxhat - xhat_i * Σ(dxhat·xhat))
func (bn *BatchNorm) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if bn.xhat == nil {
		panic("nn: BatchNorm.Backward before Forward")
	}
	dim := bn.Gamma.Value.Cols
	n := float64(bn.batchSz)
	dX := tensor.New(gradOut.Rows, gradOut.Cols)
	for j := 0; j < dim; j++ {
		g := float64(bn.Gamma.Value.Data[j])
		var sumD, sumDX float64 // Σ dxhat, Σ dxhat·xhat
		for i := 0; i < gradOut.Rows; i++ {
			d := float64(gradOut.At(i, j)) * g
			sumD += d
			sumDX += d * float64(bn.xhat.At(i, j))
		}
		// Parameter gradients.
		var dGamma, dBeta float64
		for i := 0; i < gradOut.Rows; i++ {
			dy := float64(gradOut.At(i, j))
			dGamma += dy * float64(bn.xhat.At(i, j))
			dBeta += dy
		}
		bn.Gamma.Grad.Data[j] += float32(dGamma)
		bn.Beta.Grad.Data[j] += float32(dBeta)

		invStd := bn.invStd[j]
		for i := 0; i < gradOut.Rows; i++ {
			d := float64(gradOut.At(i, j)) * g
			xh := float64(bn.xhat.At(i, j))
			dX.Set(i, j, float32(invStd/n*(n*d-sumD-xh*sumDX)))
		}
	}
	bn.xhat = nil
	return dX
}

// Params implements Layer.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// OutDim implements Layer.
func (bn *BatchNorm) OutDim(inDim int) int { return inDim }
