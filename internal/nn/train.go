package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Training. Forward runs a mini-batch through the model in training mode
// (batch statistics, dropout on) and Backward takes the loss gradient back
// through it, each one loop switching over the four layer kinds, as the
// eval loop does. What Backward needs of Forward lives in a TrainScratch the
// caller owns, one per training call, so the model keeps no per-batch state.

// TrainScratch holds the per-batch buffers of one model's training: each
// layer's output, BatchNorm's x̂ and inverse stds, Dropout's masks, and the
// input gradients Backward forms. The zero value is ready to use; buffers
// grow on demand and are retained between batches, so once the largest
// batch has run Forward allocates nothing. Every loop writes each element
// it reads later, so nothing of one batch reaches the next.
type TrainScratch struct {
	x      *tensor.Matrix   // the batch of the last Forward: the first layer's input
	layers []trainLayer     // one per layer of the model
	grad   [2]tensor.Matrix // Backward's input gradients, written alternately
}

// trainLayer is one layer's share of a TrainScratch.
type trainLayer struct {
	out    tensor.Matrix // the layer's output; a P = 0 Dropout's is its input
	xhat   []float32     // BatchNorm: the standardized input
	invStd []float64     // BatchNorm: 1/√(var+ε) of each column
	mask   []float32     // Dropout: 0 or 1/(1−P) per element
}

// resize makes m a rows×cols matrix on its own buffer, grown as needed; the
// contents are left as they were.
func resize(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	m.Rows, m.Cols, m.Data = rows, cols, growF32(m.Data, rows*cols)
	return m
}

// Forward runs the training batch x through the model and returns its
// logits, which live in ts until its next Forward. BatchNorm standardizes
// with the batch's statistics, which move its running ones, and Dropout
// draws one rng.Float64 per element in row-major order (none when P = 0).
// Backward reads x, so x must not change before it has run.
func (s *Sequential) Forward(x *tensor.Matrix, ts *TrainScratch) *tensor.Matrix {
	if len(ts.layers) < len(s.Layers) {
		ts.layers = make([]trainLayer, len(s.Layers))
	}
	ts.x = x
	in := x
	for i, l := range s.Layers {
		tl := &ts.layers[i]
		out := &tl.out
		switch ly := l.(type) {
		case *Dense:
			resize(out, in.Rows, ly.W.Value.Cols)
			ly.forwardRows(out.Data, in.Data, in.Cols, in.Rows)
		case *BatchNorm:
			ly.trainForward(resize(out, in.Rows, in.Cols), in, tl)
		case *ReLU:
			resize(out, in.Rows, in.Cols)
			for j, v := range in.Data {
				out.Data[j] = 0
				if v > 0 {
					out.Data[j] = v
				}
			}
		case *Dropout:
			if ly.P == 0 {
				*out = *in
				break
			}
			resize(out, in.Rows, in.Cols)
			tl.mask = growF32(tl.mask, len(in.Data))
			scale := float32(1 / (1 - ly.P))
			for j, v := range in.Data {
				tl.mask[j], out.Data[j] = 0, 0
				if ly.rng.Float64() >= ly.P {
					tl.mask[j], out.Data[j] = scale, v*scale
				}
			}
		default:
			panic(fmt.Sprintf("nn: no training kernel for %T", l))
		}
		in = out
	}
	return in
}

// Backward propagates g, the loss gradient with respect to the logits of
// the last Forward on ts, back through the model, adding each parameter's
// gradient into its Grad. The gradient with respect to the model's input is
// not formed: a Dense first layer (as every model NewMLP and NewLogistic
// build has) only accumulates its own.
func (s *Sequential) Backward(g *tensor.Matrix, ts *TrainScratch) {
	next := 0
	for i := len(s.Layers) - 1; i >= 0; i-- {
		in, tl, dx := ts.x, &ts.layers[i], &ts.grad[next]
		if i > 0 {
			in = &ts.layers[i-1].out
		}
		switch ly := s.Layers[i].(type) {
		case *Dense:
			// dW += xᵀ·dY and db += column sums of dY, each added in place.
			tensor.AddMatMulATB(ly.W.Grad, in, g)
			tensor.ColSums(ly.B.Grad.Data, g)
			if i == 0 {
				return
			}
			tensor.MatMulABT(resize(dx, in.Rows, in.Cols), g, ly.W.Value)
		case *BatchNorm:
			ly.trainBackward(resize(dx, in.Rows, in.Cols), g, tl)
		case *ReLU:
			// The gradient passes where the output is > 0, which is where
			// the input is.
			resize(dx, in.Rows, in.Cols)
			for j, v := range g.Data {
				dx.Data[j] = 0
				if tl.out.Data[j] > 0 {
					dx.Data[j] = v
				}
			}
		case *Dropout:
			if ly.P == 0 {
				continue
			}
			resize(dx, in.Rows, in.Cols)
			for j, v := range g.Data {
				dx.Data[j] = v * tl.mask[j]
			}
		}
		g, next = dx, 1-next
	}
}

// trainForward standardizes each column of x with the batch's statistics
// into y, keeping x̂ and the inverse stds in tl for trainBackward, and moves
// the running statistics toward the batch's. Batch statistics need at least
// two rows, so a one-row batch panics; callers skip such batches.
func (bn *BatchNorm) trainForward(y, x *tensor.Matrix, tl *trainLayer) {
	dim := bn.Gamma.Value.Cols
	if x.Cols != dim {
		panic("nn: BatchNorm width mismatch")
	}
	if x.Rows < 2 {
		panic("nn: BatchNorm training needs a batch of at least 2 rows")
	}
	n := float64(x.Rows)
	tl.xhat = growF32(tl.xhat, len(x.Data))
	tl.invStd = tl.invStd[:0]
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
		tl.invStd = append(tl.invStd, invStd)

		g, b := float64(bn.Gamma.Value.Data[j]), float64(bn.Beta.Value.Data[j])
		for i := 0; i < x.Rows; i++ {
			xh := (float64(x.At(i, j)) - mean) * invStd
			tl.xhat[i*dim+j] = float32(xh)
			y.Set(i, j, float32(xh*g+b))
		}

		// Update running statistics (unbiased variance, as PyTorch does).
		unbiased := variance * n / (n - 1)
		m := bn.Momentum
		bn.RunningMean.Data[j] = float32((1-m)*float64(bn.RunningMean.Data[j]) + m*mean)
		bn.RunningVar.Data[j] = float32((1-m)*float64(bn.RunningVar.Data[j]) + m*unbiased)
	}
}

// trainBackward adds the gamma and beta gradients of the batch into their
// Grads and writes the input gradient into dX, using the standard
// batch-norm gradient:
//
//	dxhat_i = dy_i * gamma
//	dx_i = invStd/n * (n*dxhat_i - Σdxhat - xhat_i * Σ(dxhat·xhat))
func (bn *BatchNorm) trainBackward(dX, gradOut *tensor.Matrix, tl *trainLayer) {
	dim := bn.Gamma.Value.Cols
	n := float64(gradOut.Rows)
	for j := 0; j < dim; j++ {
		g := float64(bn.Gamma.Value.Data[j])
		var sumD, sumDX float64 // Σ dxhat, Σ dxhat·xhat
		for i := 0; i < gradOut.Rows; i++ {
			d := float64(gradOut.At(i, j)) * g
			sumD += d
			sumDX += d * float64(tl.xhat[i*dim+j])
		}
		// Parameter gradients.
		var dGamma, dBeta float64
		for i := 0; i < gradOut.Rows; i++ {
			dy := float64(gradOut.At(i, j))
			dGamma += dy * float64(tl.xhat[i*dim+j])
			dBeta += dy
		}
		bn.Gamma.Grad.Data[j] += float32(dGamma)
		bn.Beta.Grad.Data[j] += float32(dBeta)

		invStd := tl.invStd[j]
		for i := 0; i < gradOut.Rows; i++ {
			d := float64(gradOut.At(i, j)) * g
			xh := float64(tl.xhat[i*dim+j])
			dX.Set(i, j, float32(invStd/n*(n*d-sumD-xh*sumDX)))
		}
	}
}
