package core

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// QueryScratch owns every intermediate buffer the online phase needs for one
// goroutine: the model forward-pass buffers, the per-member leaf probability
// rows and each row's selected member, the tree walk's node output and
// frontier, and the selected-bin list. The ensemble fills the probability
// rows and selects the members — Route for one query (row 0), RouteBatch for
// a staged chunk — and AppendCandidatesRow reads them, so everything after
// routing is one code path whatever the number of rows. After warm-up,
// routing and gathering perform no allocation beyond growth of the caller's
// candidate slice.
//
// The zero value is ready to use. Buffers grow on demand and are retained.
type QueryScratch struct {
	// Infer backs model inference, single-row and batched.
	Infer nn.InferScratch

	q tensor.Matrix // staged query rows (filled by the caller via Stage)

	probs   [][]float32 // per ensemble member: rows×M leaf distributions, flat row-major
	bestIdx []int       // best-confidence member per row (-1: none selected)
	models  []int       // forward passes the last routing call ran, per row

	nodeProb []float32      // tree walk: the expanded node's output
	frontier []frontierNode // tree walk: the nodes not yet expanded
	best     []float32      // tree walk: the m′ best leaves so far, descending

	bins []int // selected top-m′ bins for the row being appended
}

// frontierNode is a tree node the best-first walk has reached but not
// expanded, with the product of the model outputs along its path.
type frontierNode struct {
	nd   *node
	prod float32
}

// RoutedModels returns the number of model forward passes the last routing
// call ran for routed row i: one per flat member, and per tree member only
// those its top m′ leaves needed.
func (qs *QueryScratch) RoutedModels(i int) int { return qs.models[i] }

func growFloats(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// resize reshapes m to rows×cols over its own buffer, grown as needed.
func resize(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	m.Rows, m.Cols, m.Data = rows, cols, growFloats(m.Data, rows*cols)
	return m
}

// Stage prepares the scratch for a batch of n queries of width dim and
// returns the row-major backing buffer (n*dim floats) for the caller to
// fill before calling RouteBatch.
func (qs *QueryScratch) Stage(n, dim int) []float32 {
	qs.q.Rows, qs.q.Cols = n, dim
	qs.q.Data = growFloats(qs.q.Data, n*dim)
	return qs.q.Data
}

// slot returns the address of (*bufs)[i], growing *bufs as needed, so a
// buffer regrown there is kept for the next call.
func slot(bufs *[][]float32, i int) *[]float32 {
	for len(*bufs) <= i {
		*bufs = append(*bufs, nil)
	}
	return &(*bufs)[i]
}
