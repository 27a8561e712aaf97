package mem

import "fmt"

// RegOps summarizes the real registration work performed by a cache
// operation, so callers can charge the corresponding virtual time and bump
// counters. A cache hit performs no work.
type RegOps struct {
	Registrations   int64
	RegisteredPages int64
	RegisteredBytes int64
	Dereg           int64
	DeregPages      int64
	Hits            int64
	Misses          int64
	Evictions       int64
}

// Add accumulates o into ops.
func (ops *RegOps) Add(o RegOps) {
	ops.Registrations += o.Registrations
	ops.RegisteredPages += o.RegisteredPages
	ops.RegisteredBytes += o.RegisteredBytes
	ops.Dereg += o.Dereg
	ops.DeregPages += o.DeregPages
	ops.Hits += o.Hits
	ops.Misses += o.Misses
	ops.Evictions += o.Evictions
}

type cacheEntry struct {
	region *Region
	refs   int
	lru    int64 // last-use stamp; larger is more recent
}

// RegCache is a pin-down cache: registrations are kept after release and
// reused when a later request falls inside a cached region, trading pinned
// memory for registration cost. Unreferenced entries are evicted in LRU order
// when cached pinned bytes exceed the capacity.
type RegCache struct {
	tab      *RegTable
	capBytes int64
	entries  []cacheEntry // values: an entry is found by its region
	idle     int64        // pinned bytes of the unreferenced entries
	stamp    int64
	enabled  bool
	faultFn  func() error // sampled before real registrations (fault injection)
}

// NewRegCache creates a pin-down cache over t holding at most capBytes of
// pinned memory across unreferenced entries. If enabled is false the cache
// degenerates to register/deregister on every Acquire/Release pair, which
// models the paper's worst-case buffer usage experiments.
func NewRegCache(t *RegTable, capBytes int64, enabled bool) *RegCache {
	return &RegCache{tab: t, capBytes: capBytes, enabled: enabled}
}

// Enabled reports whether caching is active.
func (c *RegCache) Enabled() bool { return c.enabled }

// SetEnabled toggles caching. Disabling does not flush existing entries;
// call Flush for that.
func (c *RegCache) SetEnabled(on bool) { c.enabled = on }

// SetFaultFn installs a hook sampled before every real registration (a cache
// miss); a non-nil return fails the Acquire without registering anything.
// Cache hits do no hardware work and are never failed. Used for fault
// injection; pass nil to disable.
func (c *RegCache) SetFaultFn(fn func() error) { c.faultFn = fn }

// Acquire returns a region covering [a, a+n), reusing a cached registration
// when possible. The returned RegOps describes the real work performed.
func (c *RegCache) Acquire(a Addr, n int64) (*Region, RegOps, error) {
	var ops RegOps
	if c.enabled {
		for i := range c.entries {
			if e := &c.entries[i]; e.region.Covers(a, n) {
				if e.refs == 0 {
					c.idle -= e.region.Len
				}
				e.refs++
				c.stamp++
				e.lru = c.stamp
				ops.Hits = 1
				return e.region, ops, nil
			}
		}
		ops.Misses = 1
	}
	if c.faultFn != nil {
		if err := c.faultFn(); err != nil {
			return nil, ops, fmt.Errorf("register [%#x,+%d): %w", a, n, err)
		}
	}
	r, err := c.tab.Register(a, n)
	if err != nil {
		return nil, ops, err
	}
	ops.Registrations = 1
	ops.RegisteredPages = r.Pages
	ops.RegisteredBytes = n
	c.stamp++
	c.entries = append(c.entries, cacheEntry{region: r, refs: 1, lru: c.stamp})
	return r, ops, nil
}

// Release drops a reference obtained from Acquire. With caching enabled the
// registration is retained (subject to eviction); otherwise it is
// deregistered immediately. Eviction work is reported in RegOps.
func (c *RegCache) Release(r *Region) (RegOps, error) {
	var ops RegOps
	idx := -1
	for i, e := range c.entries {
		if e.region == r {
			idx = i
			break
		}
	}
	if idx < 0 {
		return ops, fmt.Errorf("regcache: release of unknown region [%#x,+%d)", r.Addr, r.Len)
	}
	e := &c.entries[idx]
	if e.refs <= 0 {
		return ops, fmt.Errorf("regcache: over-release of region [%#x,+%d)", r.Addr, r.Len)
	}
	e.refs--
	if e.refs > 0 {
		return ops, nil
	}
	if !c.enabled {
		c.entries = append(c.entries[:idx], c.entries[idx+1:]...)
		ops.Dereg = 1
		ops.DeregPages = r.Pages
		if err := c.tab.Deregister(r); err != nil {
			return ops, err
		}
		return ops, nil
	}
	c.idle += r.Len
	evicted, err := c.evictOver(c.capBytes)
	ops.Add(evicted)
	return ops, err
}

// evictOver deregisters unreferenced LRU entries until idle pinned bytes are
// within limit.
func (c *RegCache) evictOver(limit int64) (RegOps, error) {
	var ops RegOps
	for c.idle > limit {
		// Find LRU unreferenced entry.
		best := -1
		for i := range c.entries {
			if e := &c.entries[i]; e.refs == 0 && (best < 0 || e.lru < c.entries[best].lru) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		r := c.entries[best].region
		c.entries = append(c.entries[:best], c.entries[best+1:]...)
		c.idle -= r.Len
		ops.Evictions++
		ops.Dereg++
		ops.DeregPages += r.Pages
		if err := c.tab.Deregister(r); err != nil {
			return ops, err
		}
	}
	return ops, nil
}

// Flush deregisters every unreferenced cached entry.
func (c *RegCache) Flush() (RegOps, error) { return c.evictOver(0) }

// Entries reports the number of cached entries (referenced or not).
func (c *RegCache) Entries() int { return len(c.entries) }
