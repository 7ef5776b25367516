package constellation

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sgp4"
	"repro/internal/telemetry"
)

// failEph is an Ephemeris whose propagation always fails, for
// exercising the skip accounting.
type failEph struct{}

func (f failEph) PropagateAt(time.Time) (sgp4.State, error) {
	return sgp4.State{}, errors.New("synthetic decay")
}

func testCons(t *testing.T) *Constellation {
	t.Helper()
	c, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func counterValue(reg *telemetry.Registry, name string) int64 {
	return reg.Snapshot().Counters[name]
}

func TestSnapshotCacheHitMiss(t *testing.T) {
	cons := testCons(t)
	reg := telemetry.NewRegistry()
	cache := NewSnapshotCache(4, reg)
	at := cons.Epoch.Add(10 * time.Minute)

	a := cache.Acquire(cons, at)
	b := cache.Acquire(cons, at)
	if a != b {
		t.Fatal("same (constellation, time) returned distinct snapshots")
	}
	if len(a.States) != cons.Len() {
		t.Fatalf("snapshot has %d states, want %d", len(a.States), cons.Len())
	}
	c := cache.Acquire(cons, at.Add(time.Minute))
	if c == a {
		t.Fatal("different times returned the same snapshot")
	}
	if hits := counterValue(reg, "snapshot_cache_hits_total"); hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
	if misses := counterValue(reg, "snapshot_cache_misses_total"); misses != 2 {
		t.Fatalf("misses = %d, want 2", misses)
	}
	a.Release()
	b.Release()
	c.Release()
	if cache.Pinned() != 0 {
		t.Fatalf("Pinned = %d after releasing everything", cache.Pinned())
	}
}

func TestSnapshotCacheIndexSharedOnce(t *testing.T) {
	cons := testCons(t)
	reg := telemetry.NewRegistry()
	cache := NewSnapshotCache(4, reg)
	s := cache.Acquire(cons, cons.Epoch)
	defer s.Release()
	if s.Index() != s.Index() {
		t.Fatal("Index() rebuilt on second call")
	}
	if builds := counterValue(reg, "snapshot_index_builds_total"); builds != 1 {
		t.Fatalf("index builds = %d, want 1", builds)
	}
}

func TestSnapshotCacheEvictionRespectsPins(t *testing.T) {
	cons := testCons(t)
	cache := NewSnapshotCache(2, nil)

	// Three pinned snapshots may exceed the capacity — eviction must
	// never yank a snapshot a holder is using.
	var held []*SharedSnapshot
	for i := 0; i < 3; i++ {
		held = append(held, cache.Acquire(cons, cons.Epoch.Add(time.Duration(i)*time.Minute)))
	}
	if cache.Len() != 3 {
		t.Fatalf("Len = %d with 3 pinned snapshots, want 3", cache.Len())
	}
	for _, s := range held {
		s.Release()
	}
	if cache.Len() > 2 {
		t.Fatalf("Len = %d after releases, want <= capacity 2", cache.Len())
	}
	if cache.Pinned() != 0 {
		t.Fatalf("Pinned = %d, want 0", cache.Pinned())
	}

	// An evicted slot re-propagates; a retained one hits.
	s := cache.Acquire(cons, cons.Epoch.Add(2*time.Minute)) // MRU, retained
	s.Release()
	old := cache.Acquire(cons, cons.Epoch) // LRU, evicted earlier
	old.Release()
	if cache.Len() > 2 {
		t.Fatalf("Len = %d, want <= 2", cache.Len())
	}
}

func TestSnapshotCacheCountsSkips(t *testing.T) {
	cons := testCons(t)
	// Break two satellites' propagators.
	cons.Sats[3].Propagator = failEph{}
	cons.Sats[7].Propagator = failEph{}

	reg := telemetry.NewRegistry()
	cache := NewSnapshotCache(4, reg)
	s := cache.Acquire(cons, cons.Epoch.Add(time.Minute))
	defer s.Release()

	if s.Skipped() != 2 {
		t.Fatalf("Skipped = %d, want 2", s.Skipped())
	}
	if len(s.States) != cons.Len()-2 {
		t.Fatalf("snapshot has %d states, want %d", len(s.States), cons.Len()-2)
	}
	if skips := counterValue(reg, "constellation_propagation_skips_total"); skips != 2 {
		t.Fatalf("telemetry skips = %d, want 2", skips)
	}
	total, bySat := cons.PropagationSkips()
	if total != 2 || len(bySat) != 2 {
		t.Fatalf("PropagationSkips = (%d, %d sats), want (2, 2)", total, len(bySat))
	}
	for id, msg := range bySat {
		if msg != "synthetic decay" {
			t.Fatalf("sat %d error = %q, want the first propagation error", id, msg)
		}
	}

	// A second snapshot accumulates the running total per distinct sat
	// only once, while the total keeps counting.
	s2 := cache.Acquire(cons, cons.Epoch.Add(2*time.Minute))
	defer s2.Release()
	total, bySat = cons.PropagationSkips()
	if total != 4 || len(bySat) != 2 {
		t.Fatalf("after 2 snapshots: PropagationSkips = (%d, %d sats), want (4, 2)", total, len(bySat))
	}
}

func TestFingerprintIdentity(t *testing.T) {
	a := testCons(t)
	b := testCons(t)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identically built constellations have different fingerprints")
	}
	cfg := smallConfig()
	cfg.Seed = 99
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different seeds produced the same fingerprint")
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint not stable across calls")
	}
}

func TestSnapshotCacheSharedAcrossConstellations(t *testing.T) {
	// Two independently built but identical constellations share cache
	// entries via the fingerprint — the cross-environment sharing the
	// cache exists for.
	a := testCons(t)
	b := testCons(t)
	cache := NewSnapshotCache(4, nil)
	sa := cache.Acquire(a, a.Epoch.Add(time.Minute))
	defer sa.Release()
	sb := cache.Acquire(b, b.Epoch.Add(time.Minute))
	defer sb.Release()
	if sa != sb {
		t.Fatal("equal-fingerprint constellations did not share a snapshot")
	}
}
