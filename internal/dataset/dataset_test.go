package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestNewAndRowViews(t *testing.T) {
	d := New(3, 2)
	d.Row(1)[0] = 42
	if d.Data[2] != 42 {
		t.Fatal("Row is not a view")
	}
	rows := d.Rows()
	if len(rows) != 3 || rows[1][0] != 42 {
		t.Fatal("Rows mismatch")
	}
}

func TestSubsetAndClone(t *testing.T) {
	d := New(4, 1)
	for i := 0; i < 4; i++ {
		d.Row(i)[0] = float32(i)
	}
	s := d.Subset([]int{3, 1})
	if s.N != 2 || s.Row(0)[0] != 3 || s.Row(1)[0] != 1 {
		t.Fatalf("Subset got %+v", s)
	}
	c := d.Clone()
	c.Row(0)[0] = 99
	if d.Row(0)[0] == 99 {
		t.Fatal("Clone aliases")
	}
}

func TestAppend(t *testing.T) {
	d := New(0, 3)
	d.Append([]float32{1, 2, 3})
	if d.N != 1 || d.Row(0)[2] != 3 {
		t.Fatal("Append failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch must panic")
		}
	}()
	d.Append([]float32{1})
}

func TestSplitQueriesDisjointAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := Uniform(100, 4, rng)
	// Tag each vector with a unique first coordinate to track identity.
	for i := 0; i < d.N; i++ {
		d.Row(i)[0] = float32(i)
	}
	train, queries := SplitQueries(d, 20, rng)
	if train.N != 80 || queries.N != 20 {
		t.Fatalf("split sizes %d/%d", train.N, queries.N)
	}
	seen := map[float32]int{}
	for i := 0; i < train.N; i++ {
		seen[train.Row(i)[0]]++
	}
	for i := 0; i < queries.N; i++ {
		seen[queries.Row(i)[0]]++
	}
	if len(seen) != 100 {
		t.Fatalf("split lost or duplicated points: %d unique", len(seen))
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("point %v appears %d times", id, c)
		}
	}
}

func TestGaussianMixtureLabelsAndShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := GaussianMixture(GaussianMixtureConfig{
		N: 500, Dim: 8, Clusters: 5, ClusterStd: 0.1, CenterBox: 10, NoiseFrac: 0.1,
	}, rng)
	if l.N != 500 || l.Dim != 8 || len(l.Labels) != 500 {
		t.Fatal("shape mismatch")
	}
	counts := map[int]int{}
	for _, lab := range l.Labels {
		if lab < 0 || lab > 5 {
			t.Fatalf("label %d out of range", lab)
		}
		counts[lab]++
	}
	if counts[5] == 0 {
		t.Fatal("expected some noise points with label=Clusters")
	}
	// Cluster members must be near each other relative to the box size:
	// points sharing a label should be far closer than random pairs.
	var intra, cross float64
	ni, nc := 0, 0
	for i := 0; i < 200; i++ {
		for j := i + 1; j < 200; j++ {
			if l.Labels[i] == 5 || l.Labels[j] == 5 {
				continue
			}
			var d2 float64
			for x := 0; x < 8; x++ {
				dd := float64(l.Row(i)[x] - l.Row(j)[x])
				d2 += dd * dd
			}
			if l.Labels[i] == l.Labels[j] {
				intra += d2
				ni++
			} else {
				cross += d2
				nc++
			}
		}
	}
	if ni == 0 || nc == 0 || intra/float64(ni) > cross/float64(nc)/4 {
		t.Fatalf("intra/cross separation too weak: %v vs %v", intra/float64(ni), cross/float64(nc))
	}
}

func TestSIFTLikeNonNegative128D(t *testing.T) {
	d := SIFTLike(200, rand.New(rand.NewSource(3)))
	if d.Dim != 128 || d.N != 200 {
		t.Fatalf("shape %dx%d", d.N, d.Dim)
	}
	for _, v := range d.Data {
		if v < 0 {
			t.Fatal("SIFTLike produced negative component")
		}
	}
}

func TestMNISTLikeSparseNonNegative(t *testing.T) {
	d := MNISTLike(100, rand.New(rand.NewSource(4)))
	if d.Dim != 784 {
		t.Fatalf("dim %d", d.Dim)
	}
	zeros := 0
	for _, v := range d.Data {
		if v == 0 {
			zeros++
		}
		if v < 0 {
			t.Fatal("negative pixel")
		}
	}
	if frac := float64(zeros) / float64(len(d.Data)); frac < 0.7 {
		t.Fatalf("expected sparse data, zero fraction %v", frac)
	}
}

func TestMoonsGeometry(t *testing.T) {
	l := Moons(400, 0, rand.New(rand.NewSource(5)))
	for i := 0; i < l.N; i++ {
		x, y := float64(l.Row(i)[0]), float64(l.Row(i)[1])
		if l.Labels[i] == 0 {
			// Upper moon: on unit circle centered at origin, y ≥ 0.
			r := math.Hypot(x, y)
			if math.Abs(r-1) > 1e-5 || y < -1e-6 {
				t.Fatalf("moon0 point (%v,%v) off circle", x, y)
			}
		} else {
			r := math.Hypot(x-1, y-0.5)
			if math.Abs(r-1) > 1e-5 || y > 0.5+1e-6 {
				t.Fatalf("moon1 point (%v,%v) off circle", x, y)
			}
		}
	}
}

func TestCirclesRadii(t *testing.T) {
	l := Circles(300, 0.5, 0, rand.New(rand.NewSource(6)))
	for i := 0; i < l.N; i++ {
		r := math.Hypot(float64(l.Row(i)[0]), float64(l.Row(i)[1]))
		want := 1.0
		if l.Labels[i] == 1 {
			want = 0.5
		}
		if math.Abs(r-want) > 1e-5 {
			t.Fatalf("radius %v, want %v", r, want)
		}
	}
}

func TestCirclesBadFactorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Circles(10, 1.5, 0, rand.New(rand.NewSource(1)))
}

func TestClassification4HasFourClasses(t *testing.T) {
	l := Classification4(400, rand.New(rand.NewSource(7)))
	seen := map[int]bool{}
	for _, lab := range l.Labels {
		seen[lab] = true
	}
	for c := 0; c < 4; c++ {
		if !seen[c] {
			t.Fatalf("class %d missing", c)
		}
	}
}

func TestFvecsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := Uniform(17, 5, rng)
	var buf bytes.Buffer
	if err := WriteFvecs(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFvecs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != d.N || got.Dim != d.Dim {
		t.Fatalf("shape %dx%d", got.N, got.Dim)
	}
	for i, v := range got.Data {
		if v != d.Data[i] {
			t.Fatalf("data mismatch at %d", i)
		}
	}
}

func TestReadFvecsErrors(t *testing.T) {
	// Truncated vector body.
	var buf bytes.Buffer
	buf.Write([]byte{4, 0, 0, 0, 1, 2})
	if _, err := ReadFvecs(&buf); err == nil {
		t.Fatal("expected truncation error")
	}
	// Empty stream.
	if _, err := ReadFvecs(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected empty stream error")
	}
	// Implausible dimension.
	var buf2 bytes.Buffer
	buf2.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFvecs(&buf2); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestFvecsFileHelpers(t *testing.T) {
	dir := t.TempDir()
	d := Uniform(5, 3, rand.New(rand.NewSource(9)))
	path := dir + "/x.fvecs"
	if err := SaveFvecsFile(path, d); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFvecsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 5 || got.Dim != 3 {
		t.Fatal("file round trip shape mismatch")
	}
	if _, err := LoadFvecsFile(dir + "/missing.fvecs"); err == nil {
		t.Fatal("expected error for missing file")
	}
}
