// In-flight coalescing and result caching for the front's /search.
//
// Coalescing (singleflight): concurrent requests with the same search key
// — vector bits, k, probes, rerank_k — share one backend fan-out. The
// first request becomes the leader and executes the fan-out under a
// context detached from its own client (so a leader disconnect cannot
// fail the followers); everyone waiting on the key is sent the same encoded
// reply, hence byte-identical bodies.
//
// Caching: an optional LRU of encoded replies under the same search key,
// enabled with Config.CacheSize > 0. Entries are stamped with the front's cache
// generation at fill time and are valid only while the generation is
// unchanged. The generation bumps whenever any backend's /healthz
// reports a new snapshot generation or id offset, and on every write the
// front itself routes — so a /reload, /add, or /delete anywhere in the
// fleet invalidates the whole cache at the cost of one atomic increment,
// with stale entries evicted lazily on lookup.
package frontier

import (
	"container/list"
	"encoding/binary"
	"math"
	"sync"
)

// appendSearchKey appends the coalescing/cache identity of a search to dst:
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

// cacheEntry is one cached merged answer, valid while gen matches the
// front's current cache generation.
type cacheEntry struct {
	key   string
	gen   uint64
	reply []byte
}

// resultCache is a mutex-guarded LRU over encoded merged replies.
type resultCache struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, ll: list.New(), m: make(map[string]*list.Element, max)}
}

// get returns the cached reply for key if present and filled at the
// current generation; a stale-generation entry is evicted on sight.
func (c *resultCache) get(key []byte, gen uint64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[string(key)]
	if !ok {
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.gen != gen {
		c.ll.Remove(el)
		delete(c.m, e.key)
		return nil, false
	}
	c.ll.MoveToFront(el)
	return e.reply, true
}

// put stores reply under key at generation gen, evicting the least
// recently used entry beyond capacity.
func (c *resultCache) put(key string, gen uint64, reply []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		e := el.Value.(*cacheEntry)
		e.gen, e.reply = gen, reply
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, gen: gen, reply: reply})
	for c.ll.Len() > c.max {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.m, el.Value.(*cacheEntry).key)
	}
}

// len reports the number of resident entries (stale ones included until
// their lazy eviction). Intended for tests.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
