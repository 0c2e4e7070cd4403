package nn

import (
	"fmt"
	"math"

	"repro/internal/vecmath"
)

// Single-row, allocation-free inference. The online query path evaluates the
// model on one vector at a time; PredictVecInto runs the eval arithmetic
// (running batch-norm statistics, dropout off) through a caller-owned
// scratch, bit-identical to the matching row of PredictBatchInto.

// InferScratch holds the reusable buffers for PredictVecInto. The zero value
// is ready to use; buffers grow on demand and are retained between calls, so
// steady-state inference performs no allocation.
type InferScratch struct {
	cur, nxt []float32
}

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
	sc.cur = growF32(sc.cur, len(v))
	copy(sc.cur, v)
	for _, l := range s.Layers {
		switch ly := l.(type) {
		case *Dense:
			sc.nxt = growF32(sc.nxt, ly.W.Value.Cols)
			ly.inferRow(sc.nxt, sc.cur)
			sc.cur, sc.nxt = sc.nxt, sc.cur
		case *BatchNorm:
			ly.inferRow(sc.cur)
		case *ReLU:
			for i, x := range sc.cur {
				if x <= 0 {
					sc.cur[i] = 0
				}
			}
		case *Dropout:
			// Identity at inference.
		default:
			panic(fmt.Sprintf("nn: no inference kernel for %T", l))
		}
	}
	softmaxRow(sc.cur)
	dst = append(dst[:0], sc.cur...)
	return dst
}

// inferRow computes dst = x·W + b for a single row, mirroring
// tensor.MatMul's k-major accumulation (the same dispatched vecmath.AXPY
// microkernel, the same skip of zero inputs) followed by the bias add, so
// the result matches the batch path bitwise whichever kernel implementation
// — scalar or SIMD — the process dispatched at init.
func (d *Dense) inferRow(dst, x []float32) {
	w := d.W.Value
	for j := range dst {
		dst[j] = 0
	}
	for k, xv := range x {
		if xv == 0 {
			continue
		}
		vecmath.AXPY(xv, w.Row(k), dst)
	}
	for j, bv := range d.B.Value.Data {
		dst[j] += bv
	}
}

// inferRow standardizes a single row in place with the running statistics.
func (bn *BatchNorm) inferRow(x []float32) {
	dim := bn.Gamma.Value.Cols
	for j := 0; j < dim; j++ {
		mean := float64(bn.RunningMean.Data[j])
		invStd := 1 / math.Sqrt(float64(bn.RunningVar.Data[j])+bn.Eps)
		g, b := float64(bn.Gamma.Value.Data[j]), float64(bn.Beta.Value.Data[j])
		v := (float64(x[j]) - mean) * invStd
		x[j] = float32(v*g + b)
	}
}
