package serve

import (
	"container/list"
	"sync"

	"balign/internal/obs"
)

// CacheStats snapshots the result cache. The same counts are the
// serve.cache.* counters and gauges of the daemon's recorder.
type CacheStats struct {
	// Hits and Misses count lookups; Puts counts stored bodies and
	// Evictions the entries displaced by the entry/byte bounds.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
	// Entries and Bytes gauge the current contents.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// resultCache is the keyed LRU response cache: content hash of the
// canonical request → the exact response bytes previously served. Bodies
// are stored immutable and replayed verbatim, which is what makes the
// cache a determinism amplifier rather than a risk — equal keys always
// yield byte-identical responses, and the concurrency tests assert it.
//
// A nil *resultCache is a valid disabled cache: Get always misses, Put is
// a no-op. All methods are safe for concurrent use.
type resultCache struct {
	obs        *obs.Recorder
	maxEntries int
	maxBytes   int64

	mu      sync.Mutex
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element
	bytes   int64

	hits      uint64
	misses    uint64
	puts      uint64
	evictions uint64
}

type cacheEntry struct {
	key  string
	body []byte
}

// newResultCache returns a cache bounded by maxEntries and maxBytes (both
// must be positive). rec receives the serve.cache.* counters and gauges.
func newResultCache(maxEntries int, maxBytes int64, rec *obs.Recorder) *resultCache {
	return &resultCache{
		obs:        rec,
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		order:      list.New(),
		entries:    make(map[string]*list.Element),
	}
}

// Get returns the stored body for key. The returned slice is shared and
// must not be mutated.
func (c *resultCache) Get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		c.obs.Add("serve.cache.misses", 1)
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits++
	c.obs.Add("serve.cache.hits", 1)
	return el.Value.(*cacheEntry).body, true
}

// Put stores body under key. First write wins: a concurrent duplicate
// compute does not replace the bytes already associated with the key, so a
// key's body can never change once cached. Bodies larger than the byte
// bound are not cached at all.
func (c *resultCache) Put(key string, body []byte) {
	if c == nil || int64(len(body)) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	el := c.order.PushFront(&cacheEntry{key: key, body: body})
	c.entries[key] = el
	c.bytes += int64(len(body))
	c.puts++
	c.obs.Add("serve.cache.puts", 1)
	for len(c.entries) > c.maxEntries || c.bytes > c.maxBytes {
		back := c.order.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.entries, ev.key)
		c.bytes -= int64(len(ev.body))
		c.evictions++
		c.obs.Add("serve.cache.evictions", 1)
	}
	c.obs.Set("serve.cache.entries", int64(len(c.entries)))
	c.obs.Set("serve.cache.bytes", c.bytes)
}

// Stats snapshots the cache; the zero value for a disabled (nil) cache.
func (c *resultCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Puts:      c.puts,
		Evictions: c.evictions,
		Entries:   len(c.entries),
		Bytes:     c.bytes,
	}
}
