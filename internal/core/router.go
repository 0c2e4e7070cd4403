package core

import "repro/internal/bitset"

// Router is what the serving engine needs from a trained partition family —
// *Ensemble or *Hierarchy — so an epoch holds one of them without knowing
// which. The online phase is two calls: a routing pass that fills the
// scratch's probability rows (Route for one query, RouteBatch for a staged
// chunk), then AppendCandidatesRow per row. The rest is the index
// lifecycle: routing an inserted vector into its bins, and the compaction
// and sharding table surgery. Every method that changes a table returns a
// new router sharing the trained models; the receiver is left untouched, so
// it may keep serving readers of an older epoch.
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
	// AppendCandidatesRow appends routed row i's candidate set to dst: the
	// ids of each selected bin, in the bin's order.
	AppendCandidatesRow(dst []int32, i, probes int, mode ProbeMode, qs *QueryScratch) []int32
	// RouteBinsWith appends, per member, the bin an inserted vector is
	// routed to — its most probable one, the rule queries use.
	RouteBinsWith(qs *QueryScratch, vec []float32, dst []int) []int
	// With returns a router whose member m's bin bins[m] also holds id,
	// appended last. Only the bin-header arrays are copied; the id lists
	// stay shared, which is safe because readers of the receiver never read
	// past their own lengths.
	With(id int, bins []int) Router
	// Tables returns the lookup table of every member: tables[m][b] lists
	// the ids in member m's bin b. A hierarchy is one member whose bins are
	// its global leaves. The headers are the router's own.
	Tables() [][][]int32
	// Rebuild returns a router whose tables are the receiver's minus the ids
	// in drop, packed.
	Rebuild(drop *bitset.Set) Router
	// FilterRemap returns a router whose tables are restricted to the ids in
	// [lo, hi), renumbered to id−lo, packed.
	FilterRemap(lo, hi int) Router
	// Validate checks a decoded router against the dataset it will serve:
	// rows of width dim. A router that passes cannot make a query index out
	// of range.
	Validate(rows, dim int) error
}
