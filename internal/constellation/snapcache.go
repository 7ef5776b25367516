package constellation

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// DefaultSnapshotCacheCap bounds the number of unpinned snapshots a
// SnapshotCache retains. Snapshot keys advance monotonically during a
// campaign, so a modest window of recent slots covers every consumer;
// at Starlink scale one snapshot is a few hundred kilobytes.
const DefaultSnapshotCacheCap = 32

// snapKey identifies one propagated snapshot: which constellation
// (by fingerprint) at which instant. Both the scheduler's Allocate path
// and the campaign engine's AvailableSet path ask for slot-start times,
// so keying by the exact instant makes "propagate once per slot
// globally" fall out of sharing one cache.
type snapKey struct {
	fp   uint64
	unix int64 // UnixNano of the snapshot instant
}

// SharedSnapshot is one cached, refcounted snapshot plus its lazily
// built spatial index. Holders must treat States as read-only and call
// Release exactly once when done; while references are outstanding the
// cache never evicts the entry, so the slice is stable for the
// holder's lifetime.
type SharedSnapshot struct {
	// States is the propagated snapshot, in constellation order.
	States []SatState

	skipped int
	cache   *SnapshotCache
	key     snapKey
	refs    int // guarded by cache.mu; 0 while unpinned
	elem    *list.Element

	idxOnce sync.Once
	idx     *SnapshotIndex

	// ready gates late acquirers while the winning goroutine propagates
	// outside the cache lock.
	ready chan struct{}
}

// Skipped returns how many satellites this snapshot dropped because
// propagation failed (see Constellation.SnapshotInto).
func (s *SharedSnapshot) Skipped() int { return s.skipped }

// Index returns the snapshot's spatial index, building it on first use
// (exactly once, shared by every holder). The index shell is drawn
// from the cache's recycle pool when one is available, so steady-state
// slots rebuild into the previous slot's cell buffers instead of
// allocating a fresh grid.
func (s *SharedSnapshot) Index() *SnapshotIndex {
	s.idxOnce.Do(func() {
		t0 := time.Now()
		var ix *SnapshotIndex
		if s.cache != nil {
			ix = s.cache.popIndex()
		}
		if ix == nil {
			ix = &SnapshotIndex{}
		}
		ix.Rebuild(s.States)
		s.idx = ix
		if s.cache != nil && s.cache.metrics != nil {
			s.cache.metrics.indexBuilds.Inc()
			s.cache.metrics.indexBuildMs.Set(float64(time.Since(t0).Nanoseconds()) / 1e6)
		}
	})
	return s.idx
}

// Release returns the holder's reference. The entry stays cached (LRU,
// bounded) for future hits; dropping the last reference of an entry
// already evicted from the table lets the GC reclaim it.
func (s *SharedSnapshot) Release() {
	if s == nil || s.cache == nil {
		return
	}
	s.cache.release(s)
}

// cacheMetrics is the cache's telemetry bundle (nil when disabled).
type cacheMetrics struct {
	hits, misses, evictions *telemetry.Counter
	propSkips               *telemetry.Counter
	entries                 *telemetry.Gauge
	indexBuilds             *telemetry.Counter
	indexBuildMs            *telemetry.FloatGauge
	bufferReuses            *telemetry.Counter
}

// snapPoolCap bounds each recycle pool (state slices and index
// shells). Steady-state campaigns cycle one or two buffers; anything
// beyond the bound is dropped to the GC rather than hoarded.
const snapPoolCap = 8

// SnapshotCache shares propagated constellation snapshots — and their
// spatial indexes — across every consumer of a slot: the scheduler's
// Allocate path, the campaign engine, and repeated queries within a
// slot (netsim probes). Entries are refcounted; the LRU bound applies
// only to unpinned entries, so a holder's States slice is never
// yanked. Safe for concurrent use; concurrent Acquires of the same key
// propagate once (late arrivals block until the winner finishes).
type SnapshotCache struct {
	mu      sync.Mutex
	cap     int
	entries map[snapKey]*SharedSnapshot
	lru     *list.List // front = most recent; unpinned entries only
	metrics *cacheMetrics

	// workers is the snapshot fan-out Acquire propagates with (see
	// SetSnapshotWorkers); 0 defers to the constellation's own knob.
	workers int

	// Recycle pools, fed exclusively by eviction — the one point where
	// refs == 0 is guaranteed (only unpinned entries sit on the LRU), so
	// a pooled buffer can never alias a snapshot a holder still sees.
	statePool [][]SatState
	idxPool   []*SnapshotIndex
}

// NewSnapshotCache builds a cache retaining up to capacity unpinned
// snapshots (<= 0 selects DefaultSnapshotCacheCap). A non-nil registry
// wires hit/miss/eviction counters, the propagation-skip counter, and
// the index build-time gauge; nil disables telemetry.
func NewSnapshotCache(capacity int, reg *telemetry.Registry) *SnapshotCache {
	if capacity <= 0 {
		capacity = DefaultSnapshotCacheCap
	}
	c := &SnapshotCache{
		cap:     capacity,
		entries: make(map[snapKey]*SharedSnapshot),
		lru:     list.New(),
	}
	if reg != nil {
		c.metrics = &cacheMetrics{
			hits:         reg.Counter("snapshot_cache_hits_total", "snapshot cache lookups served from cache"),
			misses:       reg.Counter("snapshot_cache_misses_total", "snapshot cache lookups that propagated"),
			evictions:    reg.Counter("snapshot_cache_evictions_total", "snapshots evicted by the LRU bound"),
			propSkips:    reg.Counter("constellation_propagation_skips_total", "satellites dropped from snapshots by propagation failures"),
			entries:      reg.Gauge("snapshot_cache_entries", "snapshots currently cached"),
			indexBuilds:  reg.Counter("snapshot_index_builds_total", "spatial indexes built over snapshots"),
			indexBuildMs: reg.FloatGauge("snapshot_index_build_ms", "build time of the most recent spatial index"),
			bufferReuses: reg.Counter("snapshot_buffer_reuses_total", "snapshot state buffers recycled from evicted entries"),
		}
	}
	return c
}

// SetSnapshotWorkers sets the fan-out Acquire uses when propagating a
// missed snapshot: 0 defers to the constellation's SnapshotWorkers
// field, <0 selects GOMAXPROCS, 1 forces the serial sweep. Output is
// byte-identical at every value, so this is purely a throughput knob.
func (c *SnapshotCache) SetSnapshotWorkers(n int) {
	c.mu.Lock()
	c.workers = n
	c.mu.Unlock()
}

// popIndex pops a recycled index shell, or nil when the pool is empty.
func (c *SnapshotCache) popIndex() *SnapshotIndex {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.idxPool); n > 0 {
		ix := c.idxPool[n-1]
		c.idxPool[n-1] = nil
		c.idxPool = c.idxPool[:n-1]
		return ix
	}
	return nil
}

// Acquire returns the shared snapshot of cons at time t, propagating it
// if no holder has asked yet. The caller owns one reference and must
// Release it.
func (c *SnapshotCache) Acquire(cons *Constellation, t time.Time) *SharedSnapshot {
	key := snapKey{fp: cons.Fingerprint(), unix: t.UnixNano()}
	c.mu.Lock()
	if s, ok := c.entries[key]; ok {
		s.refs++
		if s.elem != nil {
			c.lru.Remove(s.elem)
			s.elem = nil
		}
		c.mu.Unlock()
		<-s.ready
		if c.metrics != nil {
			c.metrics.hits.Inc()
		}
		return s
	}
	s := &SharedSnapshot{cache: c, key: key, refs: 1, ready: make(chan struct{})}
	c.entries[key] = s
	if c.metrics != nil {
		c.metrics.entries.Set(int64(len(c.entries)))
	}
	// Claim a recycled state buffer and the worker knob while still
	// under the lock.
	var buf []SatState
	if n := len(c.statePool); n > 0 {
		buf = c.statePool[n-1]
		c.statePool[n-1] = nil
		c.statePool = c.statePool[:n-1]
	}
	workers := c.workers
	c.mu.Unlock()
	if workers == 0 {
		workers = cons.SnapshotWorkers
	}

	// Propagate outside the lock: other keys stay acquirable, and late
	// acquirers of this key wait on the ready channel.
	s.States, s.skipped = cons.SnapshotInto(buf, t, workers)
	close(s.ready)
	if c.metrics != nil {
		c.metrics.misses.Inc()
		if buf != nil {
			c.metrics.bufferReuses.Inc()
		}
		if s.skipped > 0 {
			c.metrics.propSkips.Add(int64(s.skipped))
		}
	}
	return s
}

// release drops one reference; the last release parks the entry on the
// LRU list and enforces the capacity bound.
func (c *SnapshotCache) release(s *SharedSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s.refs--
	if s.refs > 0 {
		return
	}
	if c.entries[s.key] != s {
		return // already evicted while pinned; GC reclaims it now
	}
	s.elem = c.lru.PushFront(s)
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		old := back.Value.(*SharedSnapshot)
		c.lru.Remove(back)
		old.elem = nil
		delete(c.entries, old.key)
		// Eviction is the one safe recycle point: only unpinned entries
		// (refs == 0, no holders) sit on the LRU, so the evicted buffers
		// cannot alias a snapshot anyone still references. Detach them
		// from the dead entry so a stale holder bug fails loudly (nil
		// States) instead of silently reading recycled data.
		if len(c.statePool) < snapPoolCap && old.States != nil {
			c.statePool = append(c.statePool, old.States[:0])
		}
		if len(c.idxPool) < snapPoolCap && old.idx != nil {
			c.idxPool = append(c.idxPool, old.idx)
		}
		old.States, old.idx = nil, nil
		if c.metrics != nil {
			c.metrics.evictions.Inc()
		}
	}
	if c.metrics != nil {
		c.metrics.entries.Set(int64(len(c.entries)))
	}
}

// Len reports the number of cached snapshots (pinned + unpinned).
func (c *SnapshotCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Pinned reports how many cached snapshots have outstanding references.
func (c *SnapshotCache) Pinned() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, s := range c.entries {
		if s.refs > 0 {
			n++
		}
	}
	return n
}
