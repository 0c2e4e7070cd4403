package core

import "repro/internal/bitset"

// Router is what the serving engine needs from a trained partition family —
// *Ensemble or *Hierarchy — so an epoch holds one of them without knowing
// which. The online phase is two calls: a routing pass that fills the
// scratch's probability rows (Route for one query, RouteBatch for a staged
// chunk), then AppendCandidatesRow per row. The rest is the index
// lifecycle: routing an inserted vector to its spill slots, and the
// compaction and sharding table surgery.
type Router interface {
	// Route runs the forward pass(es) for q through the single-row kernel
	// and leaves its distributions in row 0 of the scratch.
	Route(qs *QueryScratch, q []float32, mode ProbeMode)
	// RouteBatch runs the forward pass(es) over the rows staged with
	// qs.Stage, one batched pass per model. Every row's distributions are
	// bit-identical to Route's on the same query: batch and single-row
	// inference share the same dispatched microkernels and accumulation
	// order.
	RouteBatch(qs *QueryScratch, mode ProbeMode)
	// AppendCandidatesRow appends routed row i's candidate set to dst: per
	// selected bin, the frozen table range, then the bin's post-epoch
	// inserts from extra (nil when the epoch has none). n is the epoch's
	// id universe, which sizes the union-probe dedup set — the tables lag
	// behind pending inserts.
	AppendCandidatesRow(dst []int32, i, probes int, mode ProbeMode, qs *QueryScratch, n int, extra ExtraBins) []int32
	// RouteBinsWith appends, per member, the bin an inserted vector is
	// routed to — its most probable one, the rule queries use.
	RouteBinsWith(qs *QueryScratch, vec []float32, dst []int) []int
	// Shape reports the member count and the bins per member; a spill
	// slot is addressed as member*slots + bin.
	Shape() (members, slots int)
	// Rebuild returns a router sharing the trained models but owning
	// freshly merged tables over an id universe of n: per bin, the frozen
	// ids minus drop, followed by the bin's extra ids (minus drop).
	Rebuild(n int, extra ExtraBins, drop *bitset.Set) Router
	// FilterRemap returns a router sharing the trained models whose tables
	// are restricted to the ids in [lo, hi), renumbered to id−lo.
	FilterRemap(lo, hi int) Router
}
