package histstore

import (
	"sync"
	"sync/atomic"

	"rdnsprivacy/internal/dnswire"
)

// blockCache is the sharded LRU over reconstructed block states. Keys are
// (/24, version snapshot): every query whose resolved snapshot falls
// between two writes of a block shares the entry for the earlier write,
// so a quiet block occupies one slot no matter how many days are queried.
//
// The cache is sharded 16 ways by prefix so concurrent rdnsd queries do
// not serialize on one mutex, and size-bounded per shard. Cached states
// are shared read-only — block states are immutable.
type blockCache struct {
	shards  [cacheShards]cacheShard
	hits    atomic.Uint64
	misses  atomic.Uint64
	entries atomic.Int64 // across shards, so len takes no shard lock
}

const cacheShards = 16

type cacheKey struct {
	p    dnswire.Prefix
	snap int // version snapshot (the block's newest frame)
}

type cacheEntry struct {
	key        cacheKey
	state      blockState
	prev, next *cacheEntry // LRU list, most-recent at head
}

type cacheShard struct {
	mu         sync.Mutex
	cap        int
	m          map[cacheKey]*cacheEntry
	head, tail *cacheEntry
}

// newBlockCache creates a cache bounded to roughly capacity entries in
// total (at least one per shard). Nil when capacity <= 0.
func newBlockCache(capacity int) *blockCache {
	if capacity <= 0 {
		return nil
	}
	perShard := capacity / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &blockCache{}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].m = make(map[cacheKey]*cacheEntry)
	}
	return c
}

func (c *blockCache) shard(key cacheKey) *cacheShard {
	// The low prefix octets distribute consecutive /24s across shards.
	h := uint32(key.p.Addr[2])*31 + uint32(key.p.Addr[1])*7 + uint32(key.p.Addr[0])
	return &c.shards[h%cacheShards]
}

// get returns the cached state for key, counting the hit or miss. Safe on
// a nil cache (always a miss, uncounted).
func (c *blockCache) get(key cacheKey) (blockState, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	s.moveToFront(e)
	c.hits.Add(1)
	return e.state, true
}

// put inserts a state, evicting the least-recently-used entry of the
// shard when full. Safe on a nil cache.
func (c *blockCache) put(key cacheKey, state blockState) {
	if c == nil {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[key]; ok {
		e.state = state
		s.moveToFront(e)
		return
	}
	e := &cacheEntry{key: key, state: state}
	s.m[key] = e
	s.pushFront(e)
	if len(s.m) > s.cap {
		oldest := s.tail
		s.unlink(oldest)
		delete(s.m, oldest.key)
		return
	}
	c.entries.Add(1)
}

// len returns the total number of cached entries. Safe on nil.
func (c *blockCache) len() int {
	if c == nil {
		return 0
	}
	return int(c.entries.Load())
}

// counters returns the lifetime hit and miss counts. Safe on nil.
func (c *blockCache) counters() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Shard list plumbing; callers hold the shard mutex.

func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *cacheShard) moveToFront(e *cacheEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
