package usp_test

// This file is the benchmark harness required by DESIGN.md: one testing.B
// benchmark per table and figure of the paper's evaluation (each reruns the
// corresponding experiment end to end at the reduced BenchScale and reports
// recall/candidate metrics via b.ReportMetric), plus micro-benchmarks of the
// hot paths (matmul, k-NN matrix construction, training epochs, queries).
//
// Full-scale experiment runs are produced by cmd/uspbench, which shares the
// same runners (DESIGN.md, "Experiment index").

import (
	"fmt"
	"math/rand"
	"testing"

	usp "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/knn"
	"repro/internal/tensor"
)

// runExperiment executes a registered experiment b.N times and reports the
// first series' final-point recall so regressions in quality — not just
// speed — show up in benchmark output.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	sc := experiments.BenchScale()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, sc, nil)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(rep.Series) > 0 && i == 0 {
			first := rep.Series[0]
			p := first.Points[0]
			b.ReportMetric(p.Recall, "recall@first")
			b.ReportMetric(p.AvgCandidates, "candidates")
		}
	}
}

// --- One benchmark per paper artifact. ---

func BenchmarkFig5(b *testing.B) {
	for _, id := range []string{"fig5a", "fig5b", "fig5c", "fig5d"} {
		b.Run(id, func(b *testing.B) { runExperiment(b, id) })
	}
}

func BenchmarkFig6(b *testing.B) {
	for _, id := range []string{"fig6a", "fig6b"} {
		b.Run(id, func(b *testing.B) { runExperiment(b, id) })
	}
}

func BenchmarkFig7(b *testing.B) {
	for _, id := range []string{"fig7a", "fig7b"} {
		b.Run(id, func(b *testing.B) { runExperiment(b, id) })
	}
}

func BenchmarkTable2ParameterCounts(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkTable3TrainingTime(b *testing.B)    { runExperiment(b, "table3") }
func BenchmarkTable4CandidateReduction(b *testing.B) {
	runExperiment(b, "table4")
}
func BenchmarkTable5Clustering(b *testing.B) { runExperiment(b, "table5") }

// --- Micro-benchmarks of the substrates. ---

func benchVectors(n, dim int) *dataset.Dataset {
	return dataset.GaussianMixture(dataset.GaussianMixtureConfig{
		N: n, Dim: dim, Clusters: 16, ClusterStd: 1, CenterBox: 3,
	}, rand.New(rand.NewSource(1))).Dataset
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(128, 128)
	y := tensor.New(128, 128)
	dst := tensor.New(128, 128)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
		y.Data[i] = float32(rng.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(dst, x, y)
	}
	b.SetBytes(128 * 128 * 4)
}

func BenchmarkKNNMatrix(b *testing.B) {
	ds := benchVectors(1000, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		knn.BuildMatrix(ds, 10)
	}
}

func BenchmarkTrainEpoch(b *testing.B) {
	ds := benchVectors(1000, 64)
	mat := knn.BuildMatrix(ds, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := core.Train(ds, mat, core.Config{
			Bins: 16, KPrime: 10, Eta: 7, Epochs: 1,
			Hidden: []int{64}, Dropout: 0.1, Seed: int64(i),
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Batched query-engine benchmarks. ---
//
// BenchmarkSearcherSingle is the single-goroutine QPS baseline;
// BenchmarkSearchBatch fans the same queries out over the worker pool. On a
// multi-core runner the batch path must beat the single-goroutine baseline
// by roughly the core count (the acceptance target is ≥ 4× on 8 cores);
// on a single-core runner the two coincide.

func benchIndex(b *testing.B) (*usp.Index, [][]float32) {
	b.Helper()
	ds := benchVectors(4000, 64)
	ix, err := usp.Build(ds.Rows(), usp.Options{
		Bins: 16, Ensemble: 2, Epochs: 10, Hidden: []int{32}, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	queries := make([][]float32, 256)
	for i := range queries {
		queries[i] = ds.Row(i % ds.N)
	}
	return ix, queries
}

func BenchmarkSearcherSingle(b *testing.B) {
	ix, queries := benchIndex(b)
	s := ix.NewSearcher()
	dst := make([]usp.Result, 0, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = s.SearchInto(dst[:0], queries[i%len(queries)], 10, usp.SearchOptions{Probes: 2})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexSearch(b *testing.B) {
	// The legacy convenience entry point (pooled Searcher under the hood).
	ix, queries := benchIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(queries[i%len(queries)], 10, usp.SearchOptions{Probes: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchBatch(b *testing.B) {
	ix, queries := benchIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.SearchBatch(queries, 10, usp.SearchOptions{Probes: 2}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(queries)), "queries/op")
}

func BenchmarkBruteForceQuery(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			ds := benchVectors(n, 64)
			for i := 0; i < b.N; i++ {
				knn.Search(ds, ds.Row(i%ds.N), 10)
			}
		})
	}
}
