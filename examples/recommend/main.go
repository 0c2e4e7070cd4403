// Recommend: a product-recommendation scenario (the paper's motivating
// e-commerce workload). Item embeddings live in clusters by category with
// long-tail noise; the example compares a single USP model against a
// 3-model ensemble at equal probe budgets, measuring true 10-NN recall and
// candidate-set size — the trade-off every figure in the paper plots.
package main

import (
	"fmt"
	"log"
	"math/rand"

	usp "repro"
	"repro/internal/dataset"
	"repro/internal/knn"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	// 5000 "item embeddings": 40 categories with anisotropic spread plus
	// 8% uncategorized long-tail items.
	catalog := dataset.GaussianMixture(dataset.GaussianMixtureConfig{
		N: 5000, Dim: 64, Clusters: 40,
		ClusterStd: 1.0, CenterBox: 3, NoiseFrac: 0.08,
	}, rng)
	base, queries := dataset.SplitQueries(catalog.Dataset, 200, rng)
	gt := knn.GroundTruth(base, queries, 10)
	fmt.Printf("catalog: %d items, %d dims; %d held-out user queries\n",
		base.N, base.Dim, queries.N)

	build := func(ensemble int) *usp.Index {
		ix, err := usp.Build(base.Rows(), usp.Options{
			Bins: 16, Ensemble: ensemble, Epochs: 40, Hidden: []int{64}, Seed: 3,
		})
		if err != nil {
			log.Fatal(err)
		}
		return ix
	}
	fmt.Println("training single model...")
	single := build(1)
	fmt.Println("training 3-model ensemble (Algorithm 3)...")
	triple := build(3)

	measure := func(name string, ix *usp.Index, opt usp.SearchOptions) {
		var recall, cands float64
		for qi := 0; qi < queries.N; qi++ {
			q := queries.Row(qi)
			c, err := ix.CandidateSet(q, opt)
			if err != nil {
				log.Fatal(err)
			}
			res, err := ix.Search(q, 10, opt)
			if err != nil {
				log.Fatal(err)
			}
			ids := make([]int, len(res))
			for i, r := range res {
				ids[i] = r.ID
			}
			recall += knn.Recall(ids, gt[qi])
			cands += float64(len(c))
		}
		fmt.Printf("%-28s avg |C| = %7.1f   10-NN recall = %.4f\n",
			name, cands/float64(queries.N), recall/float64(queries.N))
	}

	fmt.Println("\nprobes=1 (smallest candidate sets):")
	measure("single model", single, usp.SearchOptions{Probes: 1})
	measure("ensemble (best confidence)", triple, usp.SearchOptions{Probes: 1})

	fmt.Println("\nprobes=2:")
	measure("single model", single, usp.SearchOptions{Probes: 2})
	measure("ensemble (best confidence)", triple, usp.SearchOptions{Probes: 2})
}
