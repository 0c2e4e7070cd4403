package core

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// QueryScratch owns every intermediate buffer the online phase needs for one
// goroutine: the model forward-pass buffers, the per-member leaf probability
// rows and each row's selected member, the tree walks' buffers (the full
// walk's per depth, the best-first walk's frontier), and the selected-bin
// list. The ensemble fills the probability rows and selects the members —
// Route for one query (row 0), RouteBatch for a staged chunk — and
// AppendCandidatesRow reads them, so everything after routing is one code
// path whatever the number of rows. After warm-up, routing and gathering
// perform no allocation beyond growth of the caller's candidate slice.
//
// The zero value is ready to use. Buffers grow on demand and are retained.
type QueryScratch struct {
	// Infer backs single-row model inference (nn.PredictVecInto).
	Infer nn.InferScratch
	// batch backs batched model inference (nn.PredictBatchInto).
	batch nn.BatchInferScratch

	q tensor.Matrix // staged query rows (filled by the caller via Stage)

	probs   [][]float32 // per ensemble member: rows×M leaf distributions, flat row-major
	bestIdx []int       // best-confidence member per row (-1: none selected)

	nodeProb [][]float32 // tree walk: per-depth node distributions, flat rows×width
	pathProb [][]float32 // tree walk: per-depth per-row accumulated path products

	frontier []frontierNode // best-first walk: the nodes not yet expanded
	best     []float32      // best-first walk: the m′ best leaves so far, descending
	models   int            // forward passes the last routing call ran per row

	bins  []int   // selected top-m′ bins for the row being appended
	cands []int32 // candidate staging for the []int-returning CandidatesWith
}

// frontierNode is a tree node the best-first walk has reached but not
// expanded, with the product of the model outputs along its path.
type frontierNode struct {
	nd   *node
	prod float32
}

// RoutedModels returns the number of model forward passes the last routing
// call ran for each of its rows: every model of every member for a batch,
// only those a tree's top m′ leaves needed for a single row.
func (qs *QueryScratch) RoutedModels() int { return qs.models }

func growFloats(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// Stage prepares the scratch for a batch of n queries of width dim and
// returns the row-major backing buffer (n*dim floats) for the caller to
// fill before calling RouteBatch.
func (qs *QueryScratch) Stage(n, dim int) []float32 {
	qs.q.Rows, qs.q.Cols = n, dim
	qs.q.Data = growFloats(qs.q.Data, n*dim)
	return qs.q.Data
}

// predictInto runs model's forward pass into dst (grown as needed): q
// through the single-row kernel, or the staged batch when q is nil.
func (qs *QueryScratch) predictInto(dst []float32, model *nn.Sequential, q []float32) []float32 {
	qs.models++
	if q != nil {
		return model.PredictVecInto(dst, q, &qs.Infer)
	}
	return model.PredictBatchInto(dst, &qs.q, &qs.batch)
}

// slot returns the address of (*bufs)[i], growing *bufs as needed, so a
// buffer regrown there is kept for the next call.
func slot(bufs *[][]float32, i int) *[]float32 {
	for len(*bufs) <= i {
		*bufs = append(*bufs, nil)
	}
	return &(*bufs)[i]
}

// pathBuf returns the per-row path-product buffer for tree depth d, sized
// to n rows.
func (qs *QueryScratch) pathBuf(d, n int) []float32 {
	buf := slot(&qs.pathProb, d)
	*buf = growFloats(*buf, n)
	return *buf
}
