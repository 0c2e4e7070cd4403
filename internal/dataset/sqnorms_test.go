package dataset

import (
	"math/rand"
	"testing"
)

func TestEnsureSqNormsMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := Uniform(50, 7, rng)
	d.EnsureSqNorms(false)
	if len(d.SqNorms) != d.N {
		t.Fatalf("cache length %d, want %d", len(d.SqNorms), d.N)
	}
	for i := 0; i < d.N; i++ {
		var want float64
		for _, v := range d.Row(i) {
			want += float64(v) * float64(v)
		}
		got := float64(d.SqNorms[i])
		if diff := got - want; diff > 1e-4 || diff < -1e-4 {
			t.Fatalf("row %d: cached %v, want %v", i, got, want)
		}
	}
}

func TestAppendExtendsSqNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := Uniform(10, 4, rng)
	d.EnsureSqNorms(false)
	vec := []float32{1, 2, 3, 4}
	d.Append(vec)
	if len(d.SqNorms) != 11 {
		t.Fatalf("cache not extended: %d", len(d.SqNorms))
	}
	if d.SqNorms[10] != 30 {
		t.Fatalf("appended norm %v, want 30", d.SqNorms[10])
	}
	// Without a cache, Append must not create one.
	d2 := Uniform(5, 4, rng)
	d2.Append(vec)
	if d2.SqNorms != nil {
		t.Fatal("Append created a norm cache unprompted")
	}
}

func TestEnsureSqNormsRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := Uniform(8, 3, rng)
	d.EnsureSqNorms(false)
	d.Row(0)[0] = 100
	d.EnsureSqNorms(false) // no-op: cache present and sized
	stale := d.SqNorms[0]
	d.EnsureSqNorms(true)
	if d.SqNorms[0] == stale {
		t.Fatal("rebuild did not refresh mutated row")
	}
}
