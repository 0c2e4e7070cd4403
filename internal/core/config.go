// Package core implements the paper's primary contribution: unsupervised
// space partitioning (USP) for approximate nearest neighbor search.
//
// A model (MLP or logistic regression from internal/nn) is trained directly
// on the dataset with the custom loss of §4.2.2 — no ground-truth labels and
// no graph partitioning — so that it simultaneously (a) carves the space
// into m bins whose boundaries respect the k′-NN structure and (b) learns to
// route out-of-sample queries to bins. The package also implements the two
// enhancements of §4.4: AdaBoost-style ensembling of complementary
// partitions (Algorithms 3–4) and hierarchical (recursive) partitioning.
package core

import (
	"fmt"
	"math/rand"
)

// Config controls training of one USP partitioner model.
type Config struct {
	// Bins is m, the number of partition cells the model outputs.
	Bins int
	// KPrime is k′, the neighborhood width of the k′-NN matrix
	// (paper default 10).
	KPrime int
	// Eta is the balance parameter η of Eq. 5 trading quality against
	// partition balance.
	Eta float64
	// Epochs is the number of passes over the dataset (paper: ~100 for
	// the MLP, <50 for logistic regression).
	Epochs int
	// BatchSize is the mini-batch size; §4.2.2 reports ~4% of the dataset
	// suffices. 0 selects max(64, n/25).
	BatchSize int
	// LR is the Adam learning rate (default 1e-3 when 0).
	LR float64
	// Hidden lists MLP hidden-layer widths. Empty means a logistic
	// regression model (single dense layer), the architecture used in the
	// Fig. 6 tree experiments.
	Hidden []int
	// Dropout is the drop probability on hidden layers (paper: 0.1).
	Dropout float64
	// Seed drives all randomness (init, shuffling, dropout).
	Seed int64
	// TargetGrad implements Eq. 8 literally: the k′ neighbors of each
	// batch point are forwarded through the model *inside* the training
	// graph, so gradients flow into the quality target as well as the
	// prediction. This symmetric neighbor-agreement pull lets the model
	// escape the linear-cut local optima that frozen (stop-gradient)
	// targets lock in, and is required for the non-convex clustering
	// results of Table 5. It costs roughly (1+k′) forward work per batch;
	// the ANNS experiments use the cheaper frozen-target mode, which
	// reproduces their results.
	TargetGrad bool
	// Logf, when non-nil, receives per-epoch progress lines.
	Logf func(format string, args ...any)
}

func (c *Config) validate(n int) error {
	if c.Bins < 2 {
		return fmt.Errorf("core: Bins must be ≥ 2, got %d", c.Bins)
	}
	if n < c.Bins {
		return fmt.Errorf("core: dataset of %d points cannot fill %d bins", n, c.Bins)
	}
	if c.KPrime < 1 {
		return fmt.Errorf("core: KPrime must be ≥ 1, got %d", c.KPrime)
	}
	if c.Epochs < 1 {
		return fmt.Errorf("core: Epochs must be ≥ 1, got %d", c.Epochs)
	}
	if c.Eta < 0 {
		return fmt.Errorf("core: Eta must be ≥ 0, got %g", c.Eta)
	}
	return nil
}

// withDefaults returns a copy of c with zero fields resolved for a dataset
// of n points.
func (c Config) withDefaults(n int) Config {
	if c.BatchSize == 0 {
		c.BatchSize = n / 25
		if c.BatchSize < 64 {
			c.BatchSize = 64
		}
	}
	if c.BatchSize > n {
		c.BatchSize = n
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.KPrime >= n {
		c.KPrime = n - 1
	}
	return c
}

func (c Config) rng() *rand.Rand { return rand.New(rand.NewSource(c.Seed)) }
