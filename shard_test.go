package usp

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/vecmath"
)

// shardSearchMerged fans a query over the shards and merges the per-shard
// top-k exactly the way the serving front does: offset each shard's local
// ids into the global space, then run the bounded (distance, id) merge.
func shardSearchMerged(t *testing.T, shards []*Index, q []float32, k int, opt SearchOptions) []Result {
	t.Helper()
	lists := make([][]vecmath.Neighbor, len(shards))
	for si, sh := range shards {
		rs, err := sh.Search(q, k, opt)
		if err != nil {
			t.Fatal(err)
		}
		ns := make([]vecmath.Neighbor, len(rs))
		for i, r := range rs {
			ns[i] = vecmath.Neighbor{Index: sh.IDOffset() + r.ID, Dist: r.Distance}
		}
		lists[si] = ns
	}
	merged := vecmath.MergeSortedNeighbors(nil, k, lists...)
	out := make([]Result, len(merged))
	for i, n := range merged {
		out[i] = Result{ID: n.Index, Distance: n.Dist}
	}
	return out
}

// requireShardedIdentical asserts that the merged fan-out answer over the
// shards is bit-identical (ids, order, and float distance bits) to the
// parent's single-process answer, across probe configurations.
func requireShardedIdentical(t *testing.T, parent *Index, shards []*Index, queries [][]float32, opts []SearchOptions, label string) {
	t.Helper()
	for _, opt := range opts {
		for qi, q := range queries {
			want, err := parent.Search(q, 10, opt)
			if err != nil {
				t.Fatal(err)
			}
			got := shardSearchMerged(t, shards, q, 10, opt)
			if len(got) != len(want) {
				t.Fatalf("%s %+v q%d: %d merged results, want %d", label, opt, qi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s %+v q%d result %d: merged %+v, single-process %+v",
						label, opt, qi, i, got[i], want[i])
				}
			}
		}
	}
}

// TestShardMergeBitIdentical is the acceptance test for the sharded serving
// tier: splitting a built index into disjoint shards and merging their
// per-shard top-k must reproduce the single-process answer bit-for-bit —
// including when the source carries pending spill inserts and tombstones,
// for both index architectures and several shard counts.
func TestShardMergeBitIdentical(t *testing.T) {
	probeOpts := []SearchOptions{
		{Probes: 1},
		{Probes: 2},
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"ensemble", Options{Bins: 4, Ensemble: 2, Epochs: 25, Hidden: []int{16}, Seed: 11, CompactAfter: -1}},
		{"hierarchy", Options{Hierarchy: []int{2, 2}, Epochs: 15, Hidden: []int{8}, Seed: 11, CompactAfter: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vecs, _ := clusteredVectors(211, 500, 8, 4)
			ix, err := Build(vecs, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			// Pending inserts and deletes must be folded into the shards.
			churn(t, ix, vecs, 80, 50, 212)

			for _, m := range []int{2, 3} {
				shards, err := ix.Shard(m)
				if err != nil {
					t.Fatal(err)
				}
				total := 0
				for si, sh := range shards {
					if sh.Dim() != ix.Dim() {
						t.Fatalf("shard %d dim %d, want %d", si, sh.Dim(), ix.Dim())
					}
					total += sh.Len()
				}
				if total != ix.Len() {
					t.Fatalf("shards hold %d live rows, parent holds %d", total, ix.Len())
				}
				requireShardedIdentical(t, ix, shards, vecs[:50], probeOpts, tc.name)
			}
		})
	}
}

// TestShardMergeQuantized extends the bit-equality guarantee to quantized
// indexes: shards share the parent's codebooks and inherit its code rows,
// so both the ADC pass and the exact re-rank agree with the parent.
func TestShardMergeQuantized(t *testing.T) {
	vecs, _ := clusteredVectors(223, 600, 16, 4)
	ix, err := Build(vecs, Options{
		Bins: 4, Epochs: 25, Hidden: []int{16}, Seed: 13, CompactAfter: -1,
		Quantize: Quantization{Enabled: true, Subspaces: 8, K: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := ix.Shard(3)
	if err != nil {
		t.Fatal(err)
	}

	// Full re-rank: every candidate is exactly re-scored, so the merge is
	// over exact (tie-free) distances — full bit-equality holds.
	requireShardedIdentical(t, ix, shards, vecs[:40],
		[]SearchOptions{{Probes: 2, RerankK: 1 << 20}}, "quantized-full-rerank")

	// Pure ADC: shards inherit the parent's code rows and share its
	// codebooks, so per-candidate ADC distances are identical; ids may swap
	// only where ADC distances collide (rows with equal codes).
	for qi, q := range vecs[:40] {
		opt := SearchOptions{Probes: 2, RerankK: -1}
		want, err := ix.Search(q, 10, opt)
		if err != nil {
			t.Fatal(err)
		}
		got := shardSearchMerged(t, shards, q, 10, opt)
		if len(got) != len(want) {
			t.Fatalf("adc q%d: %d merged results, want %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i].Distance != want[i].Distance {
				t.Fatalf("adc q%d rank %d: distance %x, want %x",
					qi, i, got[i].Distance, want[i].Distance)
			}
		}
	}

	// Bounded two-phase re-rank is the one mode that is not bit-decomposable:
	// each shard exactly re-scores its own local ADC top-R, a superset of the
	// parent's global ADC top-R, so the merged answer can only improve — at
	// every rank its exact distance is ≤ the single-process one.
	for qi, q := range vecs[:40] {
		opt := SearchOptions{Probes: 2}
		want, err := ix.Search(q, 10, opt)
		if err != nil {
			t.Fatal(err)
		}
		got := shardSearchMerged(t, shards, q, 10, opt)
		if len(got) != len(want) {
			t.Fatalf("two-phase q%d: %d merged results, want %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i].Distance > want[i].Distance {
				t.Fatalf("two-phase q%d rank %d: merged distance %v worse than single-process %v",
					qi, i, got[i].Distance, want[i].Distance)
			}
		}
	}
}

// TestShardLifecycleState verifies the shards are live indexes in their own
// right: ids deleted in the parent stay rejected, surviving rows can still
// be deleted locally, and new rows can be added.
func TestShardLifecycleState(t *testing.T) {
	vecs, _ := clusteredVectors(227, 300, 8, 3)
	ix, err := Build(vecs, Options{Bins: 4, Epochs: 20, Hidden: []int{8}, Seed: 17, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(10); err != nil { // lands in shard 0
		t.Fatal(err)
	}
	if err := ix.Delete(200); err != nil { // lands in shard 1
		t.Fatal(err)
	}
	shards, err := ix.Shard(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := shards[0].IDOffset(); got != 0 {
		t.Fatalf("shard 0 IDOffset = %d, want 0", got)
	}
	if got := shards[1].IDOffset(); got != 150 {
		t.Fatalf("shard 1 IDOffset = %d, want 150", got)
	}
	if err := shards[0].Delete(10); !errors.Is(err, ErrNotFound) {
		t.Fatalf("re-delete of parent-deleted id: got %v, want ErrNotFound", err)
	}
	if err := shards[1].Delete(200 - 150); !errors.Is(err, ErrNotFound) {
		t.Fatalf("re-delete in shard 1: got %v, want ErrNotFound", err)
	}
	if err := shards[0].Delete(11); err != nil {
		t.Fatalf("deleting a live row in a shard: %v", err)
	}
	if _, err := shards[1].Add(vecs[0]); err != nil {
		t.Fatalf("adding to a shard: %v", err)
	}
}

// TestShardSnapshotRoundTrip: a shard survives Save/Load with its id offset
// intact and keeps serving bit-identical results.
func TestShardSnapshotRoundTrip(t *testing.T) {
	vecs, _ := clusteredVectors(229, 400, 8, 4)
	ix, err := Build(vecs, Options{Bins: 4, Epochs: 20, Hidden: []int{8}, Seed: 19, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := ix.Shard(2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := shards[1].Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.IDOffset() != shards[1].IDOffset() {
		t.Fatalf("loaded IDOffset = %d, want %d", loaded.IDOffset(), shards[1].IDOffset())
	}
	requireIdentical(t, shards[1], loaded, vecs[:30], "shard-snapshot")

	// Re-sharding a shard composes offsets into the original id space.
	sub, err := loaded.Shard(2)
	if err != nil {
		t.Fatal(err)
	}
	if sub[0].IDOffset() != loaded.IDOffset() || sub[1].IDOffset() != loaded.IDOffset()+100 {
		t.Fatalf("composed offsets %d/%d, want %d/%d",
			sub[0].IDOffset(), sub[1].IDOffset(), loaded.IDOffset(), loaded.IDOffset()+100)
	}
}

// TestShardValidation pins the error contract.
func TestShardValidation(t *testing.T) {
	vecs, _ := clusteredVectors(233, 100, 8, 2)
	ix, err := Build(vecs, Options{Bins: 2, Epochs: 10, Hidden: []int{8}, Seed: 23, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Shard(0); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Shard(0): got %v, want ErrInvalid", err)
	}
	if _, err := ix.Shard(101); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Shard(n+1): got %v, want ErrInvalid", err)
	}

	qix, err := Build(vecs, Options{Bins: 2, Epochs: 10, Hidden: []int{8}, Seed: 23,
		Quantize: Quantization{Enabled: true, Subspaces: 4, K: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if err := qix.DropFloats(); err != nil {
		t.Fatal(err)
	}
	if _, err := qix.Shard(2); err == nil {
		t.Fatal("sharding a memory-tight index must fail")
	}
}
