package trees

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
)

func blobs(seed int64, n, dim, k int) *dataset.Labeled {
	return dataset.GaussianMixture(dataset.GaussianMixtureConfig{
		N: n, Dim: dim, Clusters: k, ClusterStd: 0.1, CenterBox: 5,
	}, rand.New(rand.NewSource(seed)))
}

func checkLeafPartition(t *testing.T, tree *Tree, n int) {
	t.Helper()
	seen := make([]int, n)
	for _, leaf := range tree.Leaves {
		for _, i := range leaf {
			seen[i]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("point %d in %d leaves", i, c)
		}
	}
}

func TestBuildWithEachSplitter(t *testing.T) {
	l := blobs(1, 400, 6, 4)
	for _, f := range []Fitter{RPFitter{}, KDFitter{}, PCAFitter{}, TwoMeansFitter{}} {
		tree := Build(l.Dataset, 4, f, 7)
		if len(tree.Leaves) < 2 {
			t.Fatalf("%s: only %d leaves", f.Name(), len(tree.Leaves))
		}
		if len(tree.Leaves) > 16 {
			t.Fatalf("%s: %d leaves exceeds 2^depth", f.Name(), len(tree.Leaves))
		}
		checkLeafPartition(t, tree, l.N)

		// Leaf scores are a distribution (product of complementary pairs).
		scores := tree.LeafScores(l.Row(0))
		var sum float64
		for _, s := range scores {
			if s < 0 || s > 1 {
				t.Fatalf("%s: leaf score %v out of range", f.Name(), s)
			}
			sum += float64(s)
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("%s: leaf scores sum to %v", f.Name(), sum)
		}

		// Hard route lands in the top-scoring leaf's subtree family:
		// route leaf must be among candidates when probing 1 leaf... the
		// top-scoring leaf can differ from the hard-routed one only near
		// boundaries; instead verify Candidates covers everything when
		// probing all leaves.
		all := tree.Candidates(l.Row(0), len(tree.Leaves))
		if len(all) != l.N {
			t.Fatalf("%s: full probe |C| = %d", f.Name(), len(all))
		}

		// Route is a valid leaf and the point routes to its own leaf for
		// hyperplane splitters (points were themselves split by Side).
		if _, ok := anySplitterAssigns(f); !ok {
			for i := 0; i < 50; i++ {
				leaf := route(tree, l.Row(i))
				found := false
				for _, j := range tree.Leaves[leaf] {
					if int(j) == i {
						found = true
					}
				}
				if !found {
					t.Fatalf("%s: point %d not in its routed leaf", f.Name(), i)
				}
			}
		}
		total := 0
		for _, leaf := range tree.Leaves {
			total += len(leaf)
		}
		if total != l.N {
			t.Fatalf("%s: leaf sizes sum %d", f.Name(), total)
		}
	}
}

func anySplitterAssigns(f Fitter) (Fitter, bool) { return f, false }

func TestTreeSeparatesBlobs(t *testing.T) {
	// A depth-3 2-means tree on 4 separated blobs has enough leaves to
	// isolate every blob even when intermediate splits go 1-vs-3; each
	// leaf should then be dominated by a single blob.
	l := blobs(2, 400, 4, 4)
	tree := Build(l.Dataset, 3, TwoMeansFitter{}, 3)
	if len(tree.Leaves) < 4 {
		t.Fatalf("leaves = %d", len(tree.Leaves))
	}
	for li, leaf := range tree.Leaves {
		counts := map[int]int{}
		for _, i := range leaf {
			counts[l.Labels[i]]++
		}
		best, total := 0, 0
		for _, c := range counts {
			total += c
			if c > best {
				best = c
			}
		}
		if total > 0 && float64(best)/float64(total) < 0.9 {
			t.Fatalf("leaf %d impure: %v", li, counts)
		}
	}
}

func TestDegenerateDataBecomesLeaf(t *testing.T) {
	// All-identical points: every splitter must fail gracefully to one leaf.
	d := dataset.New(50, 3)
	for _, f := range []Fitter{RPFitter{}, KDFitter{}, PCAFitter{}, TwoMeansFitter{}} {
		tree := Build(d, 5, f, 11)
		if len(tree.Leaves) != 1 {
			t.Fatalf("%s: %d leaves on degenerate data", f.Name(), len(tree.Leaves))
		}
		if got := tree.Candidates(d.Row(0), 1); len(got) != 50 {
			t.Fatalf("%s: single leaf should hold everything", f.Name())
		}
	}
}

func TestMoreProbesNeverShrinkCandidates(t *testing.T) {
	l := blobs(4, 300, 5, 3)
	tree := Build(l.Dataset, 5, RPFitter{}, 13)
	q := l.Row(7)
	prev := -1
	for mp := 1; mp <= len(tree.Leaves); mp++ {
		c := len(tree.Candidates(q, mp))
		if c < prev {
			t.Fatalf("candidates shrank at mp=%d", mp)
		}
		prev = c
	}
}

func TestBoostedForest(t *testing.T) {
	l := blobs(5, 400, 6, 4)
	mat := knn.BuildMatrix(l.Dataset, 5)
	forest := BuildBoostedForest(l.Dataset, mat.Neighbors, ForestConfig{
		NumTrees: 3, Depth: 3, Seed: 17,
	})
	if len(forest.Trees) != 3 {
		t.Fatalf("trees = %d", len(forest.Trees))
	}
	for _, tree := range forest.Trees {
		checkLeafPartition(t, tree, l.N)
	}
	// Union candidates duplicate-free and growing with probes.
	c1 := forest.Candidates(l.Row(0), 1)
	seen := map[int]bool{}
	for _, i := range c1 {
		if seen[i] {
			t.Fatalf("duplicate candidate %d", i)
		}
		seen[i] = true
	}
	cAll := forest.Candidates(l.Row(0), 8)
	if len(cAll) < len(c1) {
		t.Fatal("more probes produced fewer candidates")
	}
	if len(cAll) != l.N {
		t.Fatalf("full probe covers %d of %d", len(cAll), l.N)
	}
}

func TestBoostedForestRecallBeatsSingleRPTree(t *testing.T) {
	l := blobs(6, 500, 8, 6)
	mat := knn.BuildMatrix(l.Dataset, 5)
	forest := BuildBoostedForest(l.Dataset, mat.Neighbors, ForestConfig{
		NumTrees: 3, Depth: 4, Seed: 19,
	})
	rp := Build(l.Dataset, 4, RPFitter{}, 19)
	gt := knn.GroundTruth(l.Dataset, l.Dataset, 10)
	var fRecall, rpRecall float64
	for qi := 0; qi < 60; qi++ {
		q := l.Row(qi)
		fc := forest.Candidates(q, 1)
		rc := rp.Candidates(q, 3) // give the single tree more probes
		fRecall += knn.RecallNeighbors(knn.SearchSubset(l.Dataset, fc, q, 10), gt[qi])
		rpRecall += knn.RecallNeighbors(knn.SearchSubset(l.Dataset, rc, q, 10), gt[qi])
	}
	if fRecall < rpRecall {
		t.Fatalf("boosted forest recall %.3f below single RP tree %.3f", fRecall/60, rpRecall/60)
	}
}

// route returns the leaf id q reaches by hard routing.
func route(t *Tree, q []float32) int {
	n := t.root
	for n.split != nil {
		n = n.children[n.split.Side(q)]
	}
	return n.leafID
}
