// Package ivfpq implements the FAISS-style IVF-PQ index used as the "FAISS"
// baseline in Fig. 7: a k-means coarse quantizer routes each vector to one
// of nlist inverted lists, a product quantizer encodes each vector's
// residual from its list's centroid, and a query scores the nprobe nearest
// lists through per-list ADC lookup tables before exactly re-ranking the
// 10·k best.
package ivfpq

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/kmeans"
	"repro/internal/quant"
	"repro/internal/vecmath"
)

// Config controls index construction.
type Config struct {
	// NList is the number of inverted lists (coarse centroids).
	NList int
	// PQ configures the residual quantizer.
	PQ quant.Config
	// Seed drives coarse clustering.
	Seed int64
}

// Index is a built IVF-PQ index.
type Index struct {
	data   *dataset.Dataset
	coarse *kmeans.Result
	lists  [][]int32
	pq     *quant.PQ
	// codes holds the residual code of dataset row i at
	// codes[i*pq.Subspaces:(i+1)*pq.Subspaces].
	codes []uint8
}

// Build constructs the index over ds.
func Build(ds *dataset.Dataset, cfg Config) (*Index, error) {
	if cfg.NList <= 0 {
		return nil, fmt.Errorf("ivfpq: NList must be positive")
	}
	coarse, err := kmeans.Run(ds, cfg.NList, kmeans.Options{Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("ivfpq: coarse quantizer: %w", err)
	}
	ix := &Index{data: ds, coarse: coarse, lists: make([][]int32, cfg.NList)}
	for i, c := range coarse.Assign {
		ix.lists[c] = append(ix.lists[c], int32(i))
	}
	// Train the PQ on residuals r = x − centroid(x).
	resid := dataset.New(ds.N, ds.Dim)
	for i := 0; i < ds.N; i++ {
		vecmath.Sub(resid.Row(i), ds.Row(i), coarse.Centroids.Row(int(coarse.Assign[i])))
	}
	if ix.pq, err = quant.Train(resid, cfg.PQ); err != nil {
		return nil, fmt.Errorf("ivfpq: residual quantizer: %w", err)
	}
	if ix.codes, err = ix.pq.EncodeInto(nil, resid); err != nil {
		return nil, fmt.Errorf("ivfpq: encoding residuals: %w", err)
	}
	return ix, nil
}

// Search returns the k approximate nearest neighbors of q scanning nprobe
// inverted lists. Distances are squared L2.
func (ix *Index) Search(q []float32, k, nprobe int) []vecmath.Neighbor {
	m := ix.pq.Subspaces
	stage1 := vecmath.NewTopK(10 * k)
	resid := make([]float32, ix.data.Dim)
	var lut []float32
	for _, c := range ix.coarse.NearestK(q, nprobe) {
		// Per-list LUT over the query's residual against this centroid.
		vecmath.Sub(resid, q, ix.coarse.Centroids.Row(c))
		lut = ix.pq.AppendLUT(lut[:0], resid)
		for _, i := range ix.lists[c] {
			stage1.Push(int(i), vecmath.LUTSum(lut, ix.pq.K, ix.codes[int(i)*m:(int(i)+1)*m]))
		}
	}
	stage2 := vecmath.NewTopK(k)
	for _, nb := range stage1.Sorted() {
		stage2.Push(nb.Index, vecmath.SquaredL2(q, ix.data.Row(nb.Index)))
	}
	return stage2.Sorted()
}

// CandidateCount reports how many stored vectors the nprobe nearest lists
// hold for q (the |C| axis used in the evaluation).
func (ix *Index) CandidateCount(q []float32, nprobe int) int {
	total := 0
	for _, c := range ix.coarse.NearestK(q, nprobe) {
		total += len(ix.lists[c])
	}
	return total
}
