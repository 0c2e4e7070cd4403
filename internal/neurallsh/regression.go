package neurallsh

import (
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/graphpart"
	"repro/internal/knn"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/trees"
)

// RegressionFitter implements the Regression LSH baseline of Dong et al.
// (2020): a binary partitioning tree where each node's split labels come
// from a balanced bisection of the subset's k-NN graph and a logistic
// regression model is trained to mimic them for query routing. It plugs
// into the shared trees.Build framework as an AssigningSplitter, so dataset
// points follow the graph-partition labels while queries follow the model.
type RegressionFitter struct {
	// KPrime is the subset k-NN graph width (default 10).
	KPrime int
	// Epochs of logistic-regression training per node (default 30).
	Epochs int
	// Seed drives partitioning and training.
	Seed int64
}

// Every node bisects with Neural LSH's balance slack and trains its logistic
// regression at ten times Neural LSH's Adam rate, the nodes being tiny.
const regressionLR = 1e-2

// Name implements trees.Fitter.
func (RegressionFitter) Name() string { return "regression-lsh" }

type regressionSplit struct {
	model *nn.Sequential
	sides []int32
}

// Side implements trees.Splitter.
func (r *regressionSplit) Side(q []float32) int {
	p := r.model.PredictVec(q)
	if p[1] > p[0] {
		return 1
	}
	return 0
}

// Score implements trees.Splitter.
func (r *regressionSplit) Score(q []float32) float32 { return r.model.PredictVec(q)[1] }

// Assignments implements trees.AssigningSplitter.
func (r *regressionSplit) Assignments() []int32 { return r.sides }

// Fit implements trees.Fitter.
func (f RegressionFitter) Fit(ds *dataset.Dataset, idx []int32, rng *rand.Rand) trees.Splitter {
	if len(idx) < 4 {
		return nil
	}
	kp := f.KPrime
	if kp == 0 {
		kp = 10
	}
	if kp >= len(idx) {
		kp = len(idx) - 1
	}
	epochs := f.Epochs
	if epochs == 0 {
		epochs = 30
	}

	local := make([]int, len(idx))
	for i, g := range idx {
		local[i] = int(g)
	}
	sub := ds.Subset(local)
	mat := knn.BuildMatrix(sub, kp)
	g := graphpart.FromKNN(mat.Neighbors)
	sides := graphpart.Partition(g, 2, balanceSlack, rng.Int63())

	// Degenerate bisection (all one side) cannot split.
	n1 := 0
	for _, s := range sides {
		n1 += int(s)
	}
	if n1 == 0 || n1 == len(sides) {
		return nil
	}

	model := nn.NewLogistic(ds.Dim, 2, rng)
	opt := nn.NewAdam(regressionLR)
	params := model.Params()
	var ts nn.TrainScratch
	labels := make([]int, sub.N)
	for i, s := range sides {
		labels[i] = int(s)
	}
	x := tensor.FromSlice(sub.N, sub.Dim, sub.Data)
	for e := 0; e < epochs; e++ {
		model.ZeroGrads()
		logits := model.Forward(x, &ts)
		_, grad := nn.CrossEntropy(logits, labels)
		model.Backward(grad, &ts)
		opt.Step(params)
	}
	return &regressionSplit{model: model, sides: sides}
}
