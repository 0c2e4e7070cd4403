// Write routing: the front forwards /add and /delete to the shard that
// should own the row, so clients can treat the whole fleet as one index.
//
// /add routes to the group currently holding the fewest rows (as last
// reported by /healthz, advanced optimistically on every routed add) —
// but only among groups with id headroom: a shard whose next global id
// (offset + dataset rows) has reached the next shard's offset would mint
// a global id already owned by that shard, breaking delete routing and
// result-id uniqueness, so it is ineligible. For Shard-produced packed
// ranges that leaves exactly the tail shard; for independently built
// backends (equal offsets, one shared id space) every group stays
// eligible and placement is pure least-rows. The client's body is
// forwarded unread, byte for byte, to EVERY sibling replica of the chosen
// group — replicas serve the same rows, so a write that skipped one would
// fork the shard — and the first sibling's verdict on it is the front's.
// The reply is the backend's own AddResponse (local id + id offset), so the
// global id is ID + IDOffset, the same contract a direct backend add has.
//
// /delete takes a GLOBAL id and routes by the id-offset ranges learned
// from /healthz: the owning group is the one with the largest offset
// <= id, and the forwarded local id is global - offset.
//
// Error policy matches the query path: a backend 4xx verdict passes
// through verbatim (the write itself is invalid — same verdict on every
// sibling), anything else is a 502. Writes are never retried: a replayed
// add would assign a second id.
package frontier

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/serve"
)

// callJSON POSTs body to one backend and decodes its JSON reply into out.
func (f *Front) callJSON(ctx context.Context, b *backend, path string, body []byte, out any) error {
	reply, err := f.callBackend(ctx, b, path, body, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(reply, out)
}

// rows is the group's best-known row count: the largest /healthz-reported
// count among its replicas (they agree when in sync), plus the adds this
// front has routed since the last probe.
func (g *group) rows() int64 {
	var n int64
	for _, b := range g.backends {
		if v := b.vectors.Load(); v > n {
			n = v
		}
	}
	return n
}

// offset is the group's global id base as last probed; replicas agree, so
// any healthy member's value serves.
func (g *group) offset() int {
	for _, b := range g.backends {
		if b.healthy.Load() {
			return int(b.idOffset.Load())
		}
	}
	return int(g.backends[0].idOffset.Load())
}

// nextID is the global id the group's next add would be assigned: its
// offset plus the largest dataset row count (including deleted rows)
// among its replicas, optimistically advanced by routed adds.
func (g *group) nextID() int64 {
	var n int64
	for _, b := range g.backends {
		if v := b.rows.Load(); v > n {
			n = v
		}
	}
	return int64(g.offset()) + n
}

// addTarget picks the group for a routed add: the fewest live rows (ties
// to the earliest group) among groups whose next global id stays below
// every higher shard offset. The group with the highest offset has no
// shard above it and is always eligible, so there is always a target.
func (f *Front) addTarget() *group {
	var target *group
	for _, g := range f.groups {
		ceiling := int64(-1)
		for _, h := range f.groups {
			if off := int64(h.offset()); off > int64(g.offset()) && (ceiling < 0 || off < ceiling) {
				ceiling = off
			}
		}
		if ceiling >= 0 && g.nextID() >= ceiling {
			continue
		}
		if target == nil || g.rows() < target.rows() {
			target = g
		}
	}
	return target
}

func (f *Front) handleAdd(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !f.acquire(w) {
		return
	}
	defer f.release()
	body, ok := serve.ReadRequest(w, r, nil)
	if !ok {
		return
	}

	target := f.addTarget()

	// Every replica must apply the write; the first failure stops the
	// walk (a 4xx is deterministic, so siblings before it cannot have
	// accepted what a later one rejected — dim checks precede append).
	var first serve.AddResponse
	for i, b := range target.backends {
		var ar serve.AddResponse
		if err := f.callJSON(r.Context(), b, "/add", body, &ar); err != nil {
			writeFanoutError(w, err)
			return
		}
		if i == 0 {
			first = ar
		} else if ar.ID != first.ID || ar.IDOffset != first.IDOffset {
			http.Error(w, fmt.Sprintf(
				"replica divergence: %s assigned id %d@%d, %s assigned id %d@%d",
				target.backends[0].url, first.ID, first.IDOffset, b.url, ar.ID, ar.IDOffset),
				http.StatusBadGateway)
			return
		}
		b.vectors.Add(1)
		b.rows.Add(1)
	}
	writeJSON(w, first)
}

func (f *Front) handleDelete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !f.acquire(w) {
		return
	}
	defer f.release()
	var req serve.DeleteRequest
	if !serve.ReadJSON(w, r, &req) {
		return
	}
	if req.ID < 0 {
		http.Error(w, "bad request: negative id", http.StatusBadRequest)
		return
	}

	// Owner = group with the largest id offset <= the global id.
	var target *group
	bestOff := -1
	for _, g := range f.groups {
		if off := g.offset(); off <= req.ID && off > bestOff {
			target, bestOff = g, off
		}
	}
	if target == nil {
		http.Error(w, fmt.Sprintf("bad request: id %d precedes every shard's id range", req.ID),
			http.StatusBadRequest)
		return
	}
	body, err := json.Marshal(serve.DeleteRequest{ID: req.ID - bestOff})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	var first serve.DeleteResponse
	for i, b := range target.backends {
		var dr serve.DeleteResponse
		if err := f.callJSON(r.Context(), b, "/delete", body, &dr); err != nil {
			writeFanoutError(w, err)
			return
		}
		if i == 0 {
			first = dr
		}
	}
	writeJSON(w, first)
}
