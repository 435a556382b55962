// Package cache implements the shared content-addressed result cache that
// sits behind each DFK's per-process memo table. Keys are the same digests
// the memoizer already produces (memo.KeyFromPayload — app name, body hash,
// and the canonical Payload.ArgsHash of the arguments), so a result computed
// once is addressable by content from any process that can derive the same
// key. One Cache instance is safe for concurrent use and is intended to be
// shared across many DFKs: a memo miss in one tenant's table consults the
// shared tier before dispatching, turning another tenant's identical call
// into a warm hit instead of a re-execution.
//
// The cache is bounded (LRU over entry count) and entirely optional — a DFK
// configured without one pays a single nil check on the memo-miss path.
package cache

import (
	"container/list"
	"sync"
)

// DefaultMaxEntries bounds the cache when Options.MaxEntries is zero.
const DefaultMaxEntries = 1 << 16

// Options shapes a shared cache. The zero value is usable: a bounded LRU at
// DefaultMaxEntries.
type Options struct {
	// MaxEntries caps the resident entry count; the least recently used
	// entry is evicted past it. <= 0 means DefaultMaxEntries.
	MaxEntries int
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      int64 // Get found the key
	Misses    int64 // Get did not
	Stores    int64 // Put calls that inserted or refreshed an entry
	Evictions int64 // entries dropped by the LRU bound
	Entries   int   // resident entries now
}

type entry struct {
	key   string
	value any
}

// Cache is the shared tier. All methods are safe for concurrent use.
type Cache struct {
	mu        sync.Mutex
	max       int
	entries   map[string]*list.Element // key -> element whose Value is *entry
	order     *list.List               // front = most recently used
	hits      int64
	misses    int64
	stores    int64
	evictions int64
}

// New builds a shared cache from opts.
func New(opts Options) *Cache {
	max := opts.MaxEntries
	if max <= 0 {
		max = DefaultMaxEntries
	}
	return &Cache{
		max:     max,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// Get returns the cached result for a content key, marking it most recently
// used. The second return distinguishes a cached nil result from a miss.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry).value, true
}

// Contains reports whether key is resident without perturbing LRU order or
// the hit/miss counters (used by locality probes, not by the lookup path).
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Put inserts (or refreshes) a result under its content key, evicting the
// least recently used entry past the bound. Results must be treated as
// immutable by every sharer — the same value is handed to all hitters, the
// same contract the per-process memo table already imposes.
func (c *Cache) Put(key string, value any) {
	if key == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stores++
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry).value = value
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&entry{key: key, value: value})
	for len(c.entries) > c.max {
		oldest := c.order.Back()
		if oldest == nil {
			break
		}
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry).key)
		c.evictions++
	}
}

// Delete drops a key if resident (result invalidation).
func (c *Cache) Delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.Remove(el)
		delete(c.entries, key)
	}
}

// Len returns the resident entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats snapshots the effectiveness counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Stores:    c.stores,
		Evictions: c.evictions,
		Entries:   len(c.entries),
	}
}

// Seed bulk-loads entries from an iterator over key/value pairs, so a freshly
// constructed shared tier starts warm from a checkpoint.
func (c *Cache) Seed(iter func(fn func(key string, value any) bool)) {
	iter(func(key string, value any) bool {
		c.Put(key, value)
		return true
	})
}
