package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Batched, allocation-free inference. Micro-batched serving amortizes the
// model forward pass over many concurrent queries: one dispatched MatMul per
// Dense layer replaces a row of AXPY loops per query. Because tensor.MatMul
// and (*Dense).inferRow deliberately share the same k-major accumulation on
// the same dispatched vecmath.AXPY microkernel (including the zero-input
// skip), every row of the batched result is bit-identical to the single-row
// PredictVecInto path — the equality the engine's batch≡single pinning tests
// rely on. Predict, and through it offline training's per-epoch assignment
// snapshot and lookup-table build, run on this kernel too.

// BatchInferScratch holds the reusable buffers for PredictBatchInto. The
// zero value is ready to use; buffers grow on demand and are retained, so
// steady-state batched inference performs no allocation.
type BatchInferScratch struct {
	cur, nxt tensor.Matrix
}

// setCur stages src as the current activation matrix, copying so the
// caller's buffer is never mutated by in-place layers.
func (sc *BatchInferScratch) setCur(src *tensor.Matrix) {
	n := src.Rows * src.Cols
	sc.cur.Rows, sc.cur.Cols = src.Rows, src.Cols
	sc.cur.Data = growF32(sc.cur.Data, n)
	copy(sc.cur.Data, src.Data[:n])
}

// PredictBatchInto computes the model's bin probability distribution for
// every row of X into dst (grown as needed; row-major X.Rows×OutDim) and
// returns it. It is the batched PredictVecInto: eval mode, running
// batch-norm statistics, dropout disabled, one dispatched MatMul per Dense
// layer. Row i of the result is bit-identical to
// PredictVecInto(nil, X.Row(i), ...) — batch and single-row inference share
// the same dispatched microkernels and accumulation order (see package
// comment in internal/tensor). Predict is its allocating form.
func (s *Sequential) PredictBatchInto(dst []float32, X *tensor.Matrix, sc *BatchInferScratch) []float32 {
	b := X.Rows
	out := s.OutDim()
	dst = growF32(dst, b*out)
	if b == 0 {
		return dst
	}
	sc.setCur(X)
	for _, l := range s.Layers {
		switch ly := l.(type) {
		case *Dense:
			w := ly.W.Value
			sc.nxt.Rows, sc.nxt.Cols = b, w.Cols
			sc.nxt.Data = growF32(sc.nxt.Data, b*w.Cols)
			tensor.MatMul(&sc.nxt, &sc.cur, w)
			tensor.AddRowVector(&sc.nxt, ly.B.Value.Data)
			sc.cur, sc.nxt = sc.nxt, sc.cur
		case *BatchNorm:
			for i := 0; i < b; i++ {
				ly.inferRow(sc.cur.Row(i))
			}
		case *ReLU:
			for i, x := range sc.cur.Data {
				if x <= 0 {
					sc.cur.Data[i] = 0
				}
			}
		case *Dropout:
			// Identity at inference.
		default:
			panic(fmt.Sprintf("nn: no inference kernel for %T", l))
		}
	}
	for i := 0; i < b; i++ {
		row := sc.cur.Row(i)
		softmaxRow(row)
		copy(dst[i*out:(i+1)*out], row)
	}
	return dst
}
