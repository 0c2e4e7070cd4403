// Package neurallsh implements the paper's principal baseline, Neural LSH
// (Dong et al., ICLR 2020), and its tree variant Regression LSH.
//
// Neural LSH is *supervised*: a balanced partition of the dataset's k-NN
// graph (via internal/graphpart, standing in for KaHIP) provides ground-
// truth bin labels; dataset points are bucketed by those labels; a neural
// network is trained with cross-entropy purely to route out-of-sample
// queries to bins. Unlike USP, the network never shapes the partition.
package neurallsh

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/graphpart"
	"repro/internal/knn"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/vecmath"
)

// Config controls Neural LSH training.
type Config struct {
	// Bins is the number of partition cells m.
	Bins int
	// Hidden lists the classifier's hidden widths (the original uses one
	// hidden layer of 512).
	Hidden []int
	// Epochs of classifier training (default 60).
	Epochs int
	// Seed drives partitioning and training randomness.
	Seed int64
}

// The partition and the classifier's training take these fixed settings:
// the graph partitioner's balance slack, dropout on hidden layers, and the
// Adam learning rate. The batch size is max(64, n/25), capped at n.
const (
	balanceSlack  = 0.1
	hiddenDropout = 0.1
	learningRate  = 1e-3
)

// Model is a trained Neural LSH index.
type Model struct {
	Net *nn.Sequential
	M   int
	// Assign holds the graph-partition bin of every dataset point (the
	// lookup table uses these labels, not the network's own predictions).
	Assign []int32
	Bins   [][]int32
}

// Train builds the k-NN graph partition and fits the routing classifier.
func Train(ds *dataset.Dataset, knnMat *knn.Matrix, cfg Config) (*Model, error) {
	if cfg.Bins < 2 {
		return nil, fmt.Errorf("neurallsh: Bins must be ≥ 2, got %d", cfg.Bins)
	}
	if ds.N < cfg.Bins {
		return nil, fmt.Errorf("neurallsh: %d points cannot fill %d bins", ds.N, cfg.Bins)
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 60
	}
	batchSize := min(max(64, ds.N/25), ds.N)

	g := graphpart.FromKNN(knnMat.Neighbors)
	labels32 := graphpart.Partition(g, cfg.Bins, balanceSlack, cfg.Seed)

	labels := make([]int, ds.N)
	for i, l := range labels32 {
		labels[i] = int(l)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	var net *nn.Sequential
	if len(cfg.Hidden) == 0 {
		net = nn.NewLogistic(ds.Dim, cfg.Bins, rng)
	} else {
		net = nn.NewMLP(ds.Dim, cfg.Hidden, cfg.Bins, hiddenDropout, rng)
	}
	opt := nn.NewAdam(learningRate)
	params := net.Params()
	var ts nn.TrainScratch

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(ds.N)
		for lo := 0; lo < ds.N; lo += batchSize {
			hi := lo + batchSize
			if hi > ds.N {
				hi = ds.N
			}
			idx := perm[lo:hi]
			if len(idx) < 2 {
				continue // batch norm needs two rows, as in core.Train
			}
			x := tensor.New(len(idx), ds.Dim)
			y := make([]int, len(idx))
			for bi, pi := range idx {
				copy(x.Row(bi), ds.Row(pi))
				y[bi] = labels[pi]
			}
			net.ZeroGrads()
			logits := net.Forward(x, &ts)
			_, grad := nn.CrossEntropy(logits, y)
			net.Backward(grad, &ts)
			opt.Step(params)
		}
	}

	m := &Model{Net: net, M: cfg.Bins, Assign: labels32, Bins: make([][]int32, cfg.Bins)}
	for i, l := range labels32 {
		m.Bins[l] = append(m.Bins[l], int32(i))
	}
	return m, nil
}

// Probabilities returns the router's bin distribution for q.
func (m *Model) Probabilities(q []float32) []float32 { return m.Net.PredictVec(q) }

// Candidates returns the union of the mPrime most probable bins' points.
func (m *Model) Candidates(q []float32, mPrime int) []int {
	bins := vecmath.TopKIndices(m.Probabilities(q), mPrime)
	var out []int
	for _, b := range bins {
		for _, i := range m.Bins[b] {
			out = append(out, int(i))
		}
	}
	return out
}
