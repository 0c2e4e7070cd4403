package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Allocation-free inference. The online phase evaluates the model on one
// query (PredictVecInto) or on a micro-batch of them (PredictBatchInto);
// offline training's per-epoch assignment snapshot and lookup-table build
// evaluate it on the whole dataset (Predict). All of them run one eval loop
// (running batch-norm statistics, dropout off) over packed rows, whose
// dense layers run Dense.forwardRows, the dense rows of training's Forward.
// A row's probabilities therefore carry the same bits whichever entry point
// ran it and whatever rows shared its call.

// InferScratch holds the reusable buffers of the eval loop. The zero value
// is ready to use; buffers grow on demand and are retained between calls,
// so steady-state inference performs no allocation. invStd holds a
// BatchNorm layer's 1/√(var+ε), computed once per layer per call and shared
// by every row of it; the model itself caches nothing, so training and Load
// leave nothing to invalidate.
type InferScratch struct {
	cur, nxt []float32
	invStd   []float64
}

// BatchInferScratch is another name for InferScratch, kept for callers that
// name the scratch after the batch entry point.
type BatchInferScratch = InferScratch

func growF32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// PredictVecInto computes the model's bin probability distribution for a
// single vector into dst (grown as needed) and returns it: eval mode,
// running batch-norm statistics, dropout disabled. PredictVec is its
// allocating form.
func (s *Sequential) PredictVecInto(dst []float32, v []float32, sc *InferScratch) []float32 {
	return append(dst[:0], s.inferRows(v, 1, len(v), sc)...)
}

// PredictBatchInto computes the model's bin probability distribution for
// every row of X into dst (grown as needed; row-major X.Rows×OutDim) and
// returns it. Row i of the result is bit-identical to
// PredictVecInto(nil, X.Row(i), ...): both run the same loop. Predict is its
// allocating form.
func (s *Sequential) PredictBatchInto(dst []float32, X *tensor.Matrix, sc *InferScratch) []float32 {
	return append(dst[:0], s.inferRows(X.Data[:X.Rows*X.Cols], X.Rows, X.Cols, sc)...)
}

// inferRows is the eval loop: it runs the rows packed in x, each in wide,
// through every layer and the softmax, and returns their probabilities,
// packed, in a buffer of sc.
func (s *Sequential) inferRows(x []float32, rows, in int, sc *InferScratch) []float32 {
	sc.cur = append(sc.cur[:0], x...)
	width := in
	for _, l := range s.Layers {
		switch ly := l.(type) {
		case *Dense:
			sc.nxt = growF32(sc.nxt, rows*ly.W.Value.Cols)
			ly.forwardRows(sc.nxt, sc.cur, width, rows)
			sc.cur, sc.nxt = sc.nxt, sc.cur
			width = ly.W.Value.Cols
		case *BatchNorm:
			sc.invStd = sc.invStd[:0]
			for _, v := range ly.RunningVar.Data {
				sc.invStd = append(sc.invStd, 1/math.Sqrt(float64(v)+ly.Eps))
			}
			for i := range rows {
				ly.inferRow(sc.cur[i*width:(i+1)*width], sc.invStd)
			}
		case *ReLU:
			for i, v := range sc.cur {
				if v <= 0 {
					sc.cur[i] = 0
				}
			}
		case *Dropout:
			// Identity at inference.
		default:
			panic(fmt.Sprintf("nn: no inference kernel for %T", l))
		}
	}
	for i := range rows {
		softmaxRow(sc.cur[i*width : (i+1)*width])
	}
	return sc.cur
}

// inferRow standardizes a single row in place with the running statistics,
// given invStd[j] = 1/√(RunningVar[j]+ε).
func (bn *BatchNorm) inferRow(x []float32, invStd []float64) {
	for j, istd := range invStd[:len(x)] {
		mean := float64(bn.RunningMean.Data[j])
		g, b := float64(bn.Gamma.Value.Data[j]), float64(bn.Beta.Value.Data[j])
		v := (float64(x[j]) - mean) * istd
		x[j] = float32(v*g + b)
	}
}
