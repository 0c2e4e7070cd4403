package usp

// The index lifecycle: epoch-snapshotted reads, copy-on-write inserts,
// tombstoned deletes, and background compaction.
//
// Every query resolves one *epoch — an immutable bundle of (dataset view,
// lookup tables, tombstone bitmap) — via a single atomic pointer load, and
// touches nothing else. Writers construct a successor epoch that shares all
// unchanged storage with its predecessor (copy-on-write at the slice-header
// level) and publish it with an atomic store; the store's release ordering
// makes every byte the writer staged visible to readers that load the new
// epoch, while readers still holding an older epoch keep a consistent
// historical view. That is the whole synchronization story for the read
// path: no RWMutex, no reader-side atomics beyond the one load, full
// snapshot isolation.
//
// Add appends the new id to its bins through Ensemble.With: the successor
// router copies the members' bin headers and appends in place past every
// length an older epoch holds. The dataset grows the same way —
// epochs hold length-capped views, so rows appended after an epoch was
// published are invisible to it even when the backing array is shared.
//
// Compaction folds a snapshot's tombstones out of its tables and packs them
// again (see internal/core/table.go). The merge runs against the immutable
// snapshot with no locks held — it is pure id-list surgery and never
// touches vector data — and only the final swap (carrying over mutations
// that raced the merge) briefly takes the writer lock.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/quant"
)

// epoch is one immutable, atomically published snapshot of the index. All
// fields, and everything reachable from them, are frozen: readers use an
// epoch without synchronization for as long as they hold it.
type epoch struct {
	seq  uint64
	data *dataset.Dataset // length-capped view of the row storage
	// router holds the trained partitioners with their lookup tables: the
	// ensemble's members, or the hierarchy as an ensemble of one tree.
	router *core.Ensemble
	// packed is the row count the tables were packed at (by build, load or
	// compaction); the rows after it were added since, and are pending.
	packed int
	// tombs marks ids deleted since the last compaction (nil when none).
	// Candidate scans filter against it; compaction folds it away.
	tombs *bitset.Set
	// deadSet accumulates every id ever removed from the lookup tables by
	// compaction (their dataset rows remain so ids stay stable). Queries
	// never consult it — dead ids are in no bin list — but Delete uses it
	// to reject re-deletes, and snapshots persist it so a loaded index
	// keeps rejecting them too.
	deadSet *bitset.Set
	// quant is the epoch's quantized view (nil on float-only indexes):
	// the trained codebooks plus a length-capped slice of the flat code
	// buffer, frozen the same way data is.
	quant *quantView
}

// quantView is an epoch's immutable quantization snapshot.
type quantView struct {
	pq    *quant.PQ
	codes []uint8 // length- and capacity-capped at N*Subspaces
	// tight means the float rows were dropped: queries must serve
	// pure-ADC results and never touch ep.data.Data.
	tight bool
}

// dead counts rows removed from the lookup tables by past compactions.
func (ep *epoch) dead() int { return ep.deadSet.Count() }

// newIndex assembles a servable Index around trained structures and
// publishes its first epoch. seq/tombs/deadSet restore a snapshot's
// lifecycle state; Build passes 0/nil/nil. pq/codes carry the quantized
// state (nil/nil for float-only indexes).
func newIndex(ds *dataset.Dataset, router *core.Ensemble,
	opt Options, stats BuildStats, seq uint64, tombs, deadSet *bitset.Set,
	pq *quant.PQ, codes []uint8) *Index {

	ix := &Index{dim: ds.Dim, opt: opt, stats: stats, data: ds,
		pq: pq, codes: codes, qTrainedN: ds.N}
	ix.tel = newIndexMetrics(ix)
	ix.publish(&epoch{
		seq: seq, data: ix.frozenView(), router: router, packed: ds.N,
		tombs: tombs, deadSet: deadSet, quant: ix.quantSnapshot(ds.N),
	})
	return ix
}

// frozenView returns an immutable snapshot header over the current rows.
// The backing arrays are shared with the growing dataset; the view's
// length caps (and capacity caps, so no append can alias through it) make
// rows added later invisible. In memory-tight mode the float storage and
// norm cache are gone — the view keeps the row count (bin tables and ADC
// codes still reference every id) with nil payloads. Callers must hold
// wmu or be the only writer.
func (ix *Index) frozenView() *dataset.Dataset {
	n := ix.data.N
	v := &dataset.Dataset{N: n, Dim: ix.dim}
	if ix.data.Data != nil {
		v.Data = ix.data.Data[: n*ix.dim : n*ix.dim]
	}
	if ix.data.SqNorms != nil {
		v.SqNorms = ix.data.SqNorms[:n:n]
	}
	return v
}

// quantSnapshot freezes the quantization state for publication with a
// length-capped view over the first n rows' codes. Callers must hold wmu
// or be the only writer.
func (ix *Index) quantSnapshot(n int) *quantView {
	if ix.pq == nil {
		return nil
	}
	m := ix.pq.Subspaces
	return &quantView{pq: ix.pq, codes: ix.codes[: n*m : n*m], tight: ix.qtight}
}

// Add inserts a new vector into the index without retraining: the trained
// model routes it to its most probable bin(s), the same decision rule
// queries use, so it is immediately findable — the publishing store makes
// it visible to every query that starts afterwards. Returns the new
// vector's id. Safe to call concurrently with queries, Delete, and
// compaction. Heavy drift from the training distribution degrades
// partition quality; rebuild periodically under churn.
func (ix *Index) Add(vec []float32) (int, error) {
	if len(vec) != ix.dim {
		return 0, fmt.Errorf("%w: vector dim %d, index dim %d", ErrInvalid, len(vec), ix.dim)
	}
	if err := ValidateVector(vec); err != nil {
		return 0, err
	}
	// Route before taking the writer lock: the trained models are immutable,
	// so the forward passes need no exclusivity. Only the appends (dataset
	// row, bin ids) and the epoch publication run under the lock,
	// keeping concurrent mutators unblocked during inference. A pooled
	// Searcher's scratch backs the forward passes, so a sustained Add
	// stream allocates only the appended storage and the epoch header.
	s := ix.getSearcher()
	defer ix.putSearcher(s)
	prev := ix.live.Load()
	if prev.quant != nil && prev.quant.tight {
		return 0, errors.New("usp: Add is unavailable in memory-tight mode (float rows were dropped)")
	}
	s.routeBins = prev.router.RouteBinsWith(&s.qs, vec, s.routeBins[:0])
	// Encode outside the lock too: the code depends only on the codebooks,
	// not the assigned id. If a compaction retrains the codebooks between
	// here and the locked append (rare), re-encode under the lock.
	var codedWith *quant.PQ
	if qv := prev.quant; qv != nil {
		codedWith = qv.pq
		s.codeBuf = qv.pq.AppendCode(s.codeBuf[:0], vec)
	}

	ix.wmu.Lock()
	prev = ix.live.Load() // re-resolve under the lock: models are shared anyway
	if prev.quant != nil && prev.quant.tight {
		ix.wmu.Unlock()
		return 0, errors.New("usp: Add is unavailable in memory-tight mode (float rows were dropped)")
	}
	id := ix.data.N
	ix.data.Append(vec)
	if ix.pq != nil {
		if ix.pq != codedWith {
			s.codeBuf = ix.pq.AppendCode(s.codeBuf[:0], vec)
		}
		ix.codes = append(ix.codes, s.codeBuf...)
	}
	ix.publish(&epoch{
		seq: prev.seq + 1, data: ix.frozenView(), router: prev.router.With(id, s.routeBins),
		packed: prev.packed, tombs: prev.tombs, deadSet: prev.deadSet,
		quant: ix.quantSnapshot(ix.data.N),
	})
	ix.pendingOps.Add(1)
	ix.wmu.Unlock()
	ix.tel.adds.Inc()

	ix.maybeCompact()
	return id, nil
}

// Delete tombstones the vector with the given id: it stops appearing in
// any query result immediately (queries that already resolved an older
// epoch still see it — snapshot isolation), and the next compaction
// removes it from the lookup tables. The dataset row is retained so ids
// stay stable. Deleting an unknown or already-deleted id is an error.
// Safe to call concurrently with queries, Add, and compaction.
func (ix *Index) Delete(id int) error {
	ix.wmu.Lock()
	if id < 0 || id >= ix.data.N {
		ix.wmu.Unlock()
		return fmt.Errorf("%w: delete id %d out of range [0, %d)", ErrNotFound, id, ix.data.N)
	}
	prev := ix.live.Load()
	if prev.tombs.Has(id) || prev.deadSet.Has(id) {
		ix.wmu.Unlock()
		return fmt.Errorf("%w: id %d already deleted", ErrNotFound, id)
	}
	ix.publish(&epoch{
		seq: prev.seq + 1, data: prev.data, router: prev.router,
		packed: prev.packed, tombs: prev.tombs.With(id), deadSet: prev.deadSet,
		quant: prev.quant,
	})
	ix.pendingOps.Add(1)
	ix.wmu.Unlock()
	ix.tel.deletes.Inc()

	ix.maybeCompact()
	return nil
}

// Compact synchronously folds pending inserts and tombstones into freshly
// packed tables and publishes the compacted epoch. Queries and
// mutations proceed concurrently throughout: the merge works on an
// immutable snapshot with no locks held, and only the final bookkeeping
// (carrying over mutations that raced the merge) runs under the writer
// lock. Compaction never moves surviving ids — results before and after
// are identical. It is a no-op when nothing is pending.
func (ix *Index) Compact() {
	ix.compactMu.Lock()
	defer ix.compactMu.Unlock()
	ix.compactOnce()
}

// compactOnce performs one compaction cycle. Callers must hold compactMu.
func (ix *Index) compactOnce() {
	start := time.Now()
	snap := ix.live.Load()
	if snap.data.N == snap.packed && snap.tombs.Count() == 0 {
		ix.tel.compactionNoops.Inc()
		return
	}

	// Heavy phase, lock-free: merge the snapshot's tables minus its
	// tombstones into fresh packed ones. The snapshot is immutable, so
	// concurrent Add and Delete cannot disturb the merge; their effects are
	// carried over in the swap phase below.
	merged := snap.router.Rebuild(snap.tombs)
	// Retrain codebooks in the same lock-free phase when the dataset has
	// grown enough that build-time centroids misrepresent the data. Only
	// compactOnce ever writes pq/qTrainedN (compactMu is held), so reading
	// them here without wmu is safe. Memory-tight indexes have no floats
	// to retrain from.
	newPQ, newCodes := ix.maybeRetrainQuant(snap)

	ix.wmu.Lock()
	cur := ix.live.Load()
	if newPQ != nil {
		// Rows appended while we retrained were encoded with the old
		// codebooks; re-encode them before the swap makes newPQ live.
		for id := snap.data.N; id < ix.data.N; id++ {
			newCodes = newPQ.AppendCode(newCodes, ix.data.Row(id))
		}
		ix.pq, ix.codes, ix.qTrainedN = newPQ, newCodes, snap.data.N
	}
	// Inserts that reached cur after the snapshot stay pending: append each
	// bin's tail — the ids cur holds past the snapshot's length — onto the
	// merged table, in order. cur grew from the snapshot by With alone (only
	// compaction replaces tables, and compactMu is held), so the snapshot's
	// bins are prefixes of cur's.
	for m, p := range merged.Parts {
		for b, ids := range cur.router.Parts[m].Bins {
			p.Bins[b] = append(p.Bins[b], ids[len(snap.router.Parts[m].Bins[b]):]...)
		}
	}
	remAdds := cur.data.N - snap.data.N // every id ≥ snap rows arrived mid-merge
	remTombs := bitset.Diff(cur.tombs, snap.tombs)
	ix.pendingOps.Store(int64(remAdds + remTombs.Count()))
	ix.publish(&epoch{
		seq: cur.seq + 1, data: ix.frozenView(), router: merged,
		packed: snap.data.N, tombs: remTombs,
		deadSet: bitset.Union(cur.deadSet, snap.tombs),
		quant:   ix.quantSnapshot(ix.data.N),
	})
	ix.wmu.Unlock()
	ix.tel.compactions.Inc()
	ix.tel.compactionLatency.ObserveDuration(time.Since(start))
}

// maybeRetrainQuant decides whether this compaction should refresh the PQ
// codebooks and, if so, trains them on the immutable snapshot and encodes
// all of its rows — the expensive part, done with no locks held. Callers
// must hold compactMu (the only writer of pq/qTrainedN).
func (ix *Index) maybeRetrainQuant(snap *epoch) (*quant.PQ, []uint8) {
	qv := snap.quant
	q := ix.opt.Quantize
	if qv == nil || qv.tight || q.RetrainGrowth < 0 {
		return nil, nil
	}
	grown := snap.data.N - ix.qTrainedN
	if float64(grown) < q.RetrainGrowth*float64(ix.qTrainedN) {
		return nil, nil
	}
	pq, codes, err := trainQuantizer(snap.data, q, ix.opt.Seed+int64(snap.seq), ix.opt.Logf)
	if err != nil {
		// Training can only fail on degenerate data shapes; keep serving
		// the old codebooks rather than failing the compaction.
		if ix.opt.Logf != nil {
			ix.opt.Logf("usp: codebook retrain skipped: %v", err)
		}
		return nil, nil
	}
	return pq, codes
}

// DropFloats switches a quantized index into memory-tight mode: the float
// rows and norm cache are released (≈4·dim bytes/vector reclaimed, leaving
// ~Subspaces bytes/vector of codes), and every subsequent query serves
// pure-ADC results — RerankK is ignored since there is nothing to re-rank
// against. The switch is one-way and trades recall for memory. Add and
// Save return errors afterwards (they need the float rows); Delete,
// Compact and queries keep working. Safe to call concurrently with
// everything; returns an error on float-only indexes.
func (ix *Index) DropFloats() error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	if ix.pq == nil {
		return errors.New("usp: DropFloats requires a quantized index (Options.Quantize)")
	}
	if ix.qtight {
		return nil // already tight
	}
	ix.qtight = true
	ix.data.Data = nil
	ix.data.SqNorms = nil
	prev := ix.live.Load()
	ix.publish(&epoch{
		seq: prev.seq + 1, data: ix.frozenView(), router: prev.router,
		packed: prev.packed, tombs: prev.tombs, deadSet: prev.deadSet,
		quant: ix.quantSnapshot(ix.data.N),
	})
	return nil
}

// maybeCompact spawns a background compaction when enough mutations are
// pending and none is already queued.
func (ix *Index) maybeCompact() {
	if ix.opt.CompactAfter < 0 || ix.pendingOps.Load() < int64(ix.opt.CompactAfter) {
		return
	}
	if !ix.compactQueued.CompareAndSwap(false, true) {
		return
	}
	go func() {
		ix.compactMu.Lock()
		defer ix.compactMu.Unlock()
		defer ix.compactQueued.Store(false)
		ix.compactOnce()
	}()
}

// LifecycleStats reports the state of the mutation lifecycle at one epoch.
type LifecycleStats struct {
	// Epoch is the published epoch's sequence number (one publication per
	// Add, Delete, or compaction).
	Epoch uint64 `json:"epoch"`
	// Rows is the number of dataset rows, including deleted ones (ids are
	// stable, so rows are never renumbered).
	Rows int `json:"rows"`
	// Live is Rows minus every deletion — the Len of the index.
	Live int `json:"live"`
	// PendingInserts counts ids added since the tables were last packed
	// (by build, load or compaction).
	PendingInserts int `json:"pending_inserts"`
	// Tombstones counts deletions not yet folded away by compaction.
	Tombstones int `json:"tombstones"`
	// Dead counts rows removed from the lookup tables by past compactions.
	Dead int `json:"dead"`
}

// Lifecycle returns a consistent snapshot of the lifecycle counters.
// Lock-free.
func (ix *Index) Lifecycle() LifecycleStats {
	ep := ix.live.Load()
	return LifecycleStats{
		Epoch:          ep.seq,
		Rows:           ep.data.N,
		Live:           ep.data.N - ep.dead() - ep.tombs.Count(),
		PendingInserts: ep.data.N - ep.packed,
		Tombstones:     ep.tombs.Count(),
		Dead:           ep.dead(),
	}
}
