package usp

// Sharding: splitting one built index into disjoint, individually servable
// shard indexes for the horizontal fan-out serving tier (cmd/uspshard,
// cmd/uspfront).
//
// A shard is a contiguous row range [lo, hi) of the parent. Crucially the
// shards SHARE the parent's trained models — only the lookup tables and row
// storage are filtered and renumbered (core.FilterRemap) — so every shard
// routes a query to the same bins the parent would, and at equal probe
// settings the union of the shards' candidate sets reproduces the parent's
// candidate set exactly. Distances are computed by the same fused kernel
// over identical row bytes, so merging the per-shard top-k by (distance,
// global id) yields results bit-identical to the parent's. Each shard records its global offset (IDOffset) so a
// fan-out front can map local result ids back.
//
// One quantized mode is the exception: a bounded two-phase re-rank
// (RerankK > 0) has each shard exactly re-score its own local ADC top-R — a
// superset of the single process's global ADC top-R — so the merged answer
// can only improve on the single-process one, not mirror it bit-for-bit.
// Pure-ADC and full re-rank decompose exactly.

import (
	"errors"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/quant"
)

// IDOffset returns the global id of this index's local row 0 — non-zero for
// shard indexes produced by Shard (and restored from their snapshots), zero
// otherwise. A serving front adds it to result ids; it composes across
// repeated sharding.
func (ix *Index) IDOffset() int { return ix.idOffset }

// Shard splits the index into m contiguous, disjoint shard indexes, each
// fully servable (and snapshot-able via Save) on its own. Pending inserts
// and tombstones of the source are folded in first, exactly as compaction
// would; the source index itself is left untouched and keeps serving. Shard
// operates on one published epoch, so it is safe concurrently with queries,
// Add, Delete, and compaction — mutations racing the split land in the
// source only.
//
// Shard i covers parent rows [i·n/m, (i+1)·n/m); its IDOffset records the
// range start (composed with the parent's own offset), and rows the parent
// had already compacted away stay dead in the shard. Memory-tight indexes
// cannot be sharded (the float rows are gone).
func (ix *Index) Shard(m int) ([]*Index, error) {
	ep := ix.live.Load()
	n := ep.data.N
	if m < 1 {
		return nil, fmt.Errorf("%w: shard count %d must be >= 1", ErrInvalid, m)
	}
	if n < m {
		return nil, fmt.Errorf("%w: cannot split %d rows into %d shards", ErrInvalid, n, m)
	}
	if ep.quant != nil && ep.quant.tight {
		return nil, errors.New("usp: cannot shard a memory-tight index (float rows were dropped)")
	}

	// Fold the epoch's tombstones out of its tables (the compaction merge,
	// run privately — nothing is published).
	merged := ep.router.Rebuild(ep.tombs)
	dead := bitset.Union(ep.deadSet, ep.tombs)

	out := make([]*Index, m)
	for s := 0; s < m; s++ {
		lo, hi := s*n/m, (s+1)*n/m
		ds := &dataset.Dataset{N: hi - lo, Dim: ix.dim}
		ds.Data = append([]float32(nil), ep.data.Data[lo*ix.dim:hi*ix.dim]...)
		if ep.data.SqNorms != nil {
			// Copy the parent's norm cache rather than recomputing: same
			// bytes, and the shard serves bit-identical fused distances.
			ds.SqNorms = append([]float32(nil), ep.data.SqNorms[lo:hi]...)
		} else {
			ds.EnsureSqNorms(false)
		}

		var pq *quant.PQ
		var codes []uint8
		if qv := ep.quant; qv != nil {
			pq = qv.pq // codebooks are immutable and shared
			sub := qv.pq.Subspaces
			codes = append([]uint8(nil), qv.codes[lo*sub:hi*sub]...)
		}

		six := newIndex(ds, merged.FilterRemap(lo, hi), ix.opt, ix.stats, 0, nil, dead.Slice(lo, hi), pq, codes)
		six.idOffset = ix.idOffset + lo
		out[s] = six
	}
	return out, nil
}
