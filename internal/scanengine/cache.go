package scanengine

import (
	"sync"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/simclock"
)

// negCacheShards keeps lock contention low when eight-plus workers hammer
// the cache; addresses are spread by their /16 so a shard's worker mostly
// stays on one lock.
const negCacheShards = 64

// negCache remembers authoritative absences (NXDOMAIN / NODATA) so that
// NXDOMAIN-heavy static ranges are not re-probed on every sweep. Entries
// expire after a TTL; expired entries are dropped lazily on access and in
// bulk when a shard map grows past its high-water mark.
type negCache struct {
	clock simclock.Clock
	ttl   time.Duration
	shard [negCacheShards]negShard
}

type negShard struct {
	mu    sync.Mutex
	until map[dnswire.IPv4]time.Time
	sweep int // entries added since the last bulk expiry sweep
}

func newNegCache(clock simclock.Clock, ttl time.Duration) *negCache {
	return &negCache{clock: clock, ttl: ttl}
}

func (c *negCache) index(ip dnswire.IPv4) *negShard {
	return &c.shard[(uint(ip[0])<<8|uint(ip[1]))%negCacheShards]
}

// hit reports whether ip has a live negative entry.
func (c *negCache) hit(ip dnswire.IPv4) bool {
	if c == nil {
		return false
	}
	now := c.clock.Now()
	s := c.index(ip)
	s.mu.Lock()
	defer s.mu.Unlock()
	until, ok := s.until[ip]
	if !ok {
		return false
	}
	if now.After(until) {
		delete(s.until, ip) // TTL lapsed: invalidate on access
		return false
	}
	return true
}

// put records an authoritative absence for ip.
func (c *negCache) put(ip dnswire.IPv4) {
	if c == nil {
		return
	}
	now := c.clock.Now()
	s := c.index(ip)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.until == nil {
		s.until = make(map[dnswire.IPv4]time.Time)
	}
	s.until[ip] = now.Add(c.ttl)
	s.sweep++
	if s.sweep >= 4096 {
		s.sweep = 0
		for k, v := range s.until {
			if now.After(v) {
				delete(s.until, k)
			}
		}
	}
}
