// Package tensor provides a dense row-major float32 matrix type and the
// blocked, parallel linear-algebra kernels (matmul variants, transpose,
// row/column reductions) that back the neural-network stack in internal/nn.
//
// This package is the replacement for the tensor core of the deep-learning
// framework the paper uses (PyTorch); the operation set is deliberately
// limited to what a sequential MLP with batch normalization needs.
//
// The matmul family is built on the dispatched vecmath microkernels, so it
// picks up the SIMD ports automatically. One row of MatMul is MulRowInto,
// the function every dense row of the library runs: nn's dense layer in
// training and in inference, on one query or a batch of them. It is one
// vecmath.MulRow, the register-blocked dense row whose bits are those of
// the k-major AXPY loop; the weight gradient MatMulATB runs each output row
// on MulRow too, over a gathered column, and the input gradient MatMulABT
// on Dot, whose summation order differs. Training and inference, and batch
// and single row, share one arithmetic by construction, whichever kernel
// implementation the process dispatched.
package tensor

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/vecmath"
)

// Matrix is a dense row-major matrix of float32.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols
}

// New allocates a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (row-major) in a Matrix without copying.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols]
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets all elements to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// T returns a newly allocated transpose of m.
func (m *Matrix) T() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// MatMul computes dst = a · b. dst must be a.Rows×b.Cols and must not alias a
// or b. Each row is one MulRowInto; the rows split across workers from
// seqRowThreshold rows on.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	// Small operands run inline: par.ForChunks would execute them on the
	// calling goroutine anyway, and skipping it saves the escaping closure's
	// allocation. The row count is checked first because par.Workers takes
	// the scheduler lock.
	if a.Rows < seqRowThreshold || par.Workers() == 1 {
		matMulRows(dst, a, b, 0, a.Rows)
		return
	}
	par.ForChunks(a.Rows, func(lo, hi int) {
		matMulRows(dst, a, b, lo, hi)
	})
}

// seqRowThreshold mirrors par's sequential-fallback span: row counts below
// it would not be split across goroutines, so the parallel dispatch (and its
// closure) is pure overhead.
const seqRowThreshold = 1024

func matMulRows(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		MulRowInto(dst.Row(i), a.Row(i), b)
	}
}

// MulRowInto computes the row dst = x·b, where len(x) == b.Rows and
// len(dst) == b.Cols: one vecmath.MulRow, which skips zero inputs
// (worthwhile for the sparse activations ReLU produces), so a zero input
// contributes nothing even where its row of b holds ±Inf or NaN.
func MulRowInto(dst, x []float32, b *Matrix) {
	if len(x) != b.Rows || len(dst) != b.Cols {
		panic("tensor: MulRowInto shape mismatch")
	}
	vecmath.MulRow(dst, x, b.Data)
}

// trainSplitRows is the output-row count from which the gradient products
// AddMatMulATB and MatMulABT split across workers, given the multiply-adds one
// output row costs: enough rows for two workers to get minSplitWork each.
// A training batch's products split (a 320-row batch through a 128→64 layer
// is 2.6M multiply-adds) where par's 1024-row default never would; a row
// owns its output, so the split does not change a bit.
func trainSplitRows(perRow int) int {
	const minSplitWork = 1 << 16
	return 2 * (minSplitWork/max(perRow, 1) + 1)
}

// AddMatMulATB adds aᵀ · b into dst without materializing the transpose or
// the product. Shapes: a is n×r, b is n×c, dst is r×c. Used for weight
// gradients (dW += Xᵀ·dY). Row r of the product is column r of a times b:
// the column is gathered into a buffer of n floats and the row computed
// into a buffer of c floats, both one per worker chunk, by one
// vecmath.MulRow, so its bits are those of the AXPY loop over n; then the
// buffer is added into row r of dst.
func AddMatMulATB(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("tensor: AddMatMulATB shape mismatch")
	}
	// Parallelize over the rows of dst (columns of a): each worker owns a
	// disjoint slice of output rows, so no synchronization is needed.
	par.ForChunksMin(dst.Rows, trainSplitRows(a.Rows*b.Cols), func(lo, hi int) {
		buf := make([]float32, a.Rows+b.Cols)
		col, prod := buf[:a.Rows], buf[a.Rows:]
		for r := lo; r < hi; r++ {
			for n := range col {
				col[n] = a.Data[n*a.Cols+r]
			}
			vecmath.MulRow(prod, col, b.Data)
			vecmath.Add(dst.Row(r), dst.Row(r), prod)
		}
	})
}

// MatMulABT computes dst = a · bᵀ without materializing the transpose.
// Shapes: a is n×c, b is m×c, dst is n×m. The inner product over c is
// contiguous in both operands. Used for input gradients (dX = dY·Wᵀ) and for
// batched distance/dot computations.
func MatMulABT(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("tensor: MatMulABT shape mismatch")
	}
	par.ForChunksMin(a.Rows, trainSplitRows(a.Cols*b.Rows), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			drow := dst.Row(i)
			for j := 0; j < b.Rows; j++ {
				drow[j] = vecmath.Dot(arow, b.Row(j))
			}
		}
	})
}

// AddRowVector adds vec to every row of m in place (broadcast bias add).
func AddRowVector(m *Matrix, vec []float32) {
	if len(vec) != m.Cols {
		panic("tensor: AddRowVector length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range vec {
			row[j] += v
		}
	}
}

// ColSums adds the per-column sums of m into dst (each sum accumulated in
// float64, rounded to float32, then added). dst must have length m.Cols.
func ColSums(dst []float32, m *Matrix) {
	if len(dst) != m.Cols {
		panic("tensor: ColSums length mismatch")
	}
	acc := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			acc[j] += float64(v)
		}
	}
	for j := range dst {
		dst[j] += float32(acc[j])
	}
}

// Equalish reports whether a and b have identical shape and all elements
// within tol of each other. Intended for tests.
func Equalish(a, b *Matrix, tol float32) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		d := v - b.Data[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			return false
		}
	}
	return true
}
