package core

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// QueryScratch owns every intermediate buffer the online phase needs for one
// goroutine: the model forward-pass buffers, the per-member (or per-tree-
// depth) probability rows, the selected-bin list, and a generation-stamped
// visited set for union probing. A router fills the probability rows —
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

	memberProbs [][]float32 // per ensemble member: rows×M distributions, flat row-major
	bestIdx     []int       // best-confidence member per row (-1: none selected)

	leaf     []float32   // hierarchy: rows×NumBins leaf distributions, flat
	nodeProb [][]float32 // hierarchy: per-depth node distributions, flat rows×m
	pathProb [][]float32 // hierarchy: per-depth per-row accumulated path products (batched walk)

	bins  []int   // selected top-m′ bins for the row being appended
	cands []int32 // candidate staging for the []int-returning CandidatesWith

	// seen/gen implement an O(1)-reset visited set for UnionProbe dedup:
	// seen[i] == gen marks id i as already emitted for the current row.
	seen []uint32
	gen  uint32
}

// ToInts materializes an []int32 id list as a fresh []int — the conversion
// CandidatesWith performs at the boundary between the int32 engine and the
// seed-era []int APIs.
func ToInts(ids []int32) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

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

// beginSeen starts a new row of the visited set and returns the generation
// stamp to mark ids with.
func (qs *QueryScratch) beginSeen() uint32 {
	qs.gen++
	if qs.gen == 0 { // wrapped: stamps from 2^32 queries ago could collide
		clear(qs.seen)
		qs.gen = 1
	}
	return qs.gen
}

// growSeen extends the visited set to cover id. It takes the whole capacity
// append grew, so ids climbing one at a time regrow it O(log n) times. The
// ids it adds are unmarked: no stamp is 0.
func (qs *QueryScratch) growSeen(id int32) {
	qs.seen = append(qs.seen, make([]uint32, int(id)+1-len(qs.seen))...)
	qs.seen = qs.seen[:cap(qs.seen)]
}

// predict runs model's forward pass into the probability buffer (*bufs)[i]
// — through the single-row kernel for q, or over the staged batch when q is
// nil — keeps the grown buffer there for the next call, and returns it.
// Ensembles keep one buffer per member, hierarchies one per tree depth.
func (qs *QueryScratch) predict(bufs *[][]float32, i int, model *nn.Sequential, q []float32) []float32 {
	for len(*bufs) <= i {
		*bufs = append(*bufs, nil)
	}
	if q != nil {
		(*bufs)[i] = model.PredictVecInto((*bufs)[i], q, &qs.Infer)
	} else {
		(*bufs)[i] = model.PredictBatchInto((*bufs)[i], &qs.q, &qs.batch)
	}
	return (*bufs)[i]
}

// pathBuf returns the per-row path-product buffer for tree depth d, sized
// to n rows.
func (qs *QueryScratch) pathBuf(d, n int) []float32 {
	for len(qs.pathProb) <= d {
		qs.pathProb = append(qs.pathProb, nil)
	}
	qs.pathProb[d] = growFloats(qs.pathProb[d], n)
	return qs.pathProb[d]
}
