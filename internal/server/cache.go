package server

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"repro/internal/concept"
	"repro/internal/fa"
	"repro/internal/obs"
	"repro/internal/trace"
)

// latticeCache is an LRU of built concept lattices keyed by the (trace
// multiset, reference FA) pair. Lattices are immutable once finalized and
// carry no labels — labeling state lives in cable.Session — so a cached
// lattice is safely shared by any number of concurrent sessions over the
// same inputs. Re-uploading a trace set the server has already analyzed
// therefore skips concept.Build entirely, which is the dominant cost of
// session creation.
type latticeCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List               // front = most recently used
	entries map[string]*list.Element // key -> element holding *cacheEntry
	metrics *obs.Metrics
}

type cacheEntry struct {
	key     string
	lattice *concept.Lattice
}

// newLatticeCache returns a cache holding at most capacity lattices;
// capacity <= 0 disables caching (every Get misses, Put drops).
func newLatticeCache(capacity int, m *obs.Metrics) *latticeCache {
	return &latticeCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
		metrics: m,
	}
}

// cacheKey fingerprints the inputs that determine a lattice: the ordered
// class keys of the trace set (order fixes the object numbering, so a
// permuted upload builds a different — if isomorphic — lattice) and the
// reference FA's text serialization. Multiplicities are deliberately
// excluded: the lattice is built over class representatives, so the same
// classes with different counts share a lattice.
//
// Each class is hashed as its key's length (8 bytes, little-endian) and
// then the key, both appended to one reused buffer.
func cacheKey(set *trace.Set, ref *fa.FA) string {
	h := sha256.New()
	var buf bytes.Buffer
	if err := fa.Write(&buf, ref); err == nil {
		h.Write(buf.Bytes())
	}
	kb := buf.Bytes()[:0] // the FA text is hashed; reuse its storage
	for i := 0; i < set.NumClasses(); i++ {
		k := set.ClassKey(i)
		kb = binary.LittleEndian.AppendUint64(kb[:0], uint64(len(k)))
		kb = append(kb, k...)
		h.Write(kb)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Enabled reports whether the cache stores anything at all; sessions only
// need copy-on-write lattice handling when it does.
func (c *latticeCache) Enabled() bool { return c.cap > 0 }

// Get returns the cached lattice for key, promoting it to most recently
// used, or nil on a miss.
func (c *latticeCache) Get(key string) *concept.Lattice {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.metrics.Counter("server.cache.hits").Inc()
		return el.Value.(*cacheEntry).lattice
	}
	c.metrics.Counter("server.cache.misses").Inc()
	return nil
}

// Put stores a freshly built lattice, evicting the least recently used
// entry when over capacity. Storing an existing key promotes it.
func (c *latticeCache) Put(key string, l *concept.Lattice) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*cacheEntry).lattice = l
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, lattice: l})
	for c.order.Len() > c.cap {
		back := c.order.Back()
		delete(c.entries, back.Value.(*cacheEntry).key)
		c.order.Remove(back)
		c.metrics.Counter("server.cache.evictions").Inc()
	}
	c.metrics.Gauge("server.cache.size").Set(int64(c.order.Len()))
}
