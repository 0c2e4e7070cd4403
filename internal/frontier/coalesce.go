// In-flight coalescing for the front's /search (singleflight): concurrent
// requests with the same search key — vector bits, k, probes, rerank_k —
// share one backend fan-out. The first request becomes the leader and
// executes the fan-out under a context detached from its own client (so a
// leader disconnect cannot fail the followers); everyone waiting on the key
// is sent the same encoded reply, hence byte-identical bodies. Nothing
// outlives the fan-out: a request that arrives after it finished fans out
// anew, so it sees every write the backends have applied by then.
package frontier

import (
	"encoding/binary"
	"math"
)

// appendSearchKey appends the coalescing identity of a search to dst:
// the exact float32 bit patterns of the vector plus every parameter that
// changes the answer. Two requests with the same key are interchangeable.
func appendSearchKey(dst []byte, vec []float32, k, probes, rerankK int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(k))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(probes))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rerankK))
	for _, v := range vec {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

// flight is one in-progress fan-out shared by every request with the same
// key. done closes after reply/err are set; reply is the encoded answer,
// read-only from then on.
type flight struct {
	done  chan struct{}
	key   string
	reply []byte
	err   error
}

// joinFlight returns the flight registered for key, creating it (leader
// = true) if none is in progress. Only the leader's registration copies the
// key out of the request's buffer.
func (f *Front) joinFlight(key []byte) (*flight, bool) {
	f.flightMu.Lock()
	defer f.flightMu.Unlock()
	if fl, ok := f.flights[string(key)]; ok {
		f.coalesced.Inc()
		return fl, false
	}
	fl := &flight{done: make(chan struct{}), key: string(key)}
	f.flights[fl.key] = fl
	return fl, true
}

// finishFlight publishes the leader's outcome and wakes the followers.
func (f *Front) finishFlight(fl *flight, reply []byte, err error) {
	fl.reply, fl.err = reply, err
	f.flightMu.Lock()
	delete(f.flights, fl.key)
	f.flightMu.Unlock()
	close(fl.done)
}
