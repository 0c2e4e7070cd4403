package frontier

import (
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/serve"
)

// TestAddRoutesLeastRows: /add lands on the group with the fewest rows,
// assigns the backend's next local id, and a wrong-width vector comes
// back as the backend's own 400.
func TestAddRoutesLeastRows(t *testing.T) {
	vecs := corpusRows(t, 149, 500, 8)
	small := buildIndex(t, vecs[:200])
	big := buildIndex(t, vecs[200:])
	smallSrv, bigSrv := backendFor(t, small), backendFor(t, big)
	f, front := frontFor(t, Config{Shards: [][]string{{bigSrv.URL}, {smallSrv.URL}}})

	for i := 0; i < 3; i++ {
		ar := decode[serve.AddResponse](t, postJSON(t, front.URL+"/add", serve.AddRequest{Vector: vecs[i]}))
		if ar.ID != 200+i {
			t.Fatalf("add %d: assigned id %d, want %d (the smaller shard's next id)", i, ar.ID, 200+i)
		}
	}
	hz := decode[serve.HealthzResponse](t, mustGet(t, smallSrv.URL+"/healthz"))
	if hz.Vectors != 203 {
		t.Fatalf("small shard has %d vectors, want 203", hz.Vectors)
	}
	hz = decode[serve.HealthzResponse](t, mustGet(t, bigSrv.URL+"/healthz"))
	if hz.Vectors != 300 {
		t.Fatalf("big shard has %d vectors, want 300 (no adds should land here)", hz.Vectors)
	}

	// Backend 4xx verdicts pass through verbatim; nothing is retried.
	resp := postJSON(t, front.URL+"/add", serve.AddRequest{Vector: vecs[0][:4]})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dim mismatch add: HTTP %d, want 400", resp.StatusCode)
	}
	if f.retries.Value() != 0 {
		t.Fatalf("a failed write was retried %d times", f.retries.Value())
	}
}

// TestAddReplicatedToAllSiblings: a routed add reaches every replica of
// the target group as the very bytes the client sent, keeping siblings
// row-identical.
func TestAddReplicatedToAllSiblings(t *testing.T) {
	vecs := corpusRows(t, 151, 300, 8)
	r1, r2 := buildIndex(t, vecs), buildIndex(t, vecs)
	s1, s2 := backendFor(t, r1), backendFor(t, r2)
	var mu sync.Mutex
	var received []string
	record := func(path string, body []byte) {
		mu.Lock()
		received = append(received, path+" "+string(body))
		mu.Unlock()
	}
	p1, p2 := recordingProxy(t, s1, record), recordingProxy(t, s2, record)
	_, front := frontFor(t, Config{Shards: [][]string{{p1.URL, p2.URL}}})

	body := " { \"vector\" : " + string(mustJSON(t, vecs[0])) + ", \"note\": \"kept as sent\" }\n"
	resp, err := http.Post(front.URL+"/add", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	ar := decode[serve.AddResponse](t, resp)
	if ar.ID != 300 || ar.IDOffset != 0 {
		t.Fatalf("add assigned %d@%d, want 300@0", ar.ID, ar.IDOffset)
	}
	if want := []string{"/add " + body, "/add " + body}; !slices.Equal(received, want) {
		t.Fatalf("siblings received %q, want the client's bytes once each: %q", received, want)
	}
	for _, srv := range []string{s1.URL, s2.URL} {
		hz := decode[serve.HealthzResponse](t, mustGet(t, srv+"/healthz"))
		if hz.Vectors != 301 {
			t.Fatalf("replica %s has %d vectors, want 301 (write must reach every sibling)", srv, hz.Vectors)
		}
	}
}

// TestDeleteRoutesByOffset: /delete takes a global id and forwards the
// offset-corrected local id to the shard whose id range owns it.
func TestDeleteRoutesByOffset(t *testing.T) {
	vecs := corpusRows(t, 157, 600, 8)
	union := buildIndex(t, vecs)
	shards, err := union.Shard(2)
	if err != nil {
		t.Fatal(err)
	}
	f, front := frontFor(t, Config{Shards: [][]string{
		{backendFor(t, shards[0]).URL},
		{backendFor(t, shards[1]).URL},
	}})

	// Sanity: exact self-queries resolve to their own global ids.
	for _, id := range []int{10, 450} {
		sr := decode[serve.SearchResponse](t, postJSON(t, front.URL+"/search",
			serve.SearchRequest{Vector: vecs[id], K: 1, Probes: 2}))
		if len(sr.IDs) != 1 || sr.IDs[0] != id {
			t.Fatalf("pre-delete query for %d answered %v", id, sr.IDs)
		}
	}
	for _, id := range []int{10, 450} {
		dr := decode[serve.DeleteResponse](t, postJSON(t, front.URL+"/delete", serve.DeleteRequest{ID: id}))
		if !dr.Deleted {
			t.Fatalf("delete %d not acknowledged", id)
		}
		sr := decode[serve.SearchResponse](t, postJSON(t, front.URL+"/search",
			serve.SearchRequest{Vector: vecs[id], K: 1, Probes: 2}))
		if len(sr.IDs) == 1 && sr.IDs[0] == id {
			t.Fatalf("global id %d still served after routed delete", id)
		}
	}

	// Out-of-range local id after routing → the backend's 404, verbatim.
	resp := postJSON(t, front.URL+"/delete", serve.DeleteRequest{ID: 99999})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("out-of-range delete: HTTP %d, want the backend's 404", resp.StatusCode)
	}
	// Negative ids are rejected at the front with zero backend traffic.
	before := f.fanout.Value()
	resp = postJSON(t, front.URL+"/delete", serve.DeleteRequest{ID: -1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative delete: HTTP %d, want 400", resp.StatusCode)
	}
	if f.fanout.Value() != before {
		t.Fatal("negative id reached a backend")
	}
}

// TestAddAvoidsIDCollisionAcrossShardRanges: with Shard-produced packed
// id ranges, least-rows placement alone would put an add on an interior
// shard and mint a global id already owned by the next shard — a routed
// delete of that id would then destroy the wrong vector. Adds must land
// on the only group with id headroom (the tail shard) so global ids stay
// unique and delete routing stays sound.
func TestAddAvoidsIDCollisionAcrossShardRanges(t *testing.T) {
	vecs := corpusRows(t, 163, 600, 8)
	union := buildIndex(t, vecs)
	shards, err := union.Shard(2)
	if err != nil {
		t.Fatal(err)
	}
	_, front := frontFor(t, Config{Shards: [][]string{
		{backendFor(t, shards[0]).URL},
		{backendFor(t, shards[1]).URL},
	}})

	// Both shards hold 300 rows; naive least-rows ties to shard 0, whose
	// next global id (300) collides with shard 1's range [300, 600).
	added := make([]float32, 8)
	for i := range added {
		added[i] = 0.137
	}
	ar := decode[serve.AddResponse](t, postJSON(t, front.URL+"/add", serve.AddRequest{Vector: added}))
	gid := ar.ID + ar.IDOffset
	if ar.IDOffset != 300 || gid != 600 {
		t.Fatalf("add landed at id %d@%d (global %d), want the tail shard: 300@300 (global 600)",
			ar.ID, ar.IDOffset, gid)
	}

	// Deleting the new global id must remove the added vector...
	dr := decode[serve.DeleteResponse](t, postJSON(t, front.URL+"/delete", serve.DeleteRequest{ID: gid}))
	if !dr.Deleted {
		t.Fatalf("delete of added id %d not acknowledged", gid)
	}
	sr := decode[serve.SearchResponse](t, postJSON(t, front.URL+"/search",
		serve.SearchRequest{Vector: added, K: 1, Probes: 2}))
	if len(sr.IDs) == 1 && sr.IDs[0] == gid {
		t.Fatalf("added vector still served as %v after its delete", sr.IDs)
	}
	// ...and the vector that owns the colliding-range id (shard 1's first
	// row, global id 300) must be untouched.
	sr = decode[serve.SearchResponse](t, postJSON(t, front.URL+"/search",
		serve.SearchRequest{Vector: vecs[300], K: 1, Probes: 2}))
	if len(sr.IDs) != 1 || sr.IDs[0] != 300 {
		t.Fatalf("global id 300 answered %v after deleting the added id; the wrong vector was deleted", sr.IDs)
	}
}
