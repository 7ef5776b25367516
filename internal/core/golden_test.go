package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/constellation"
	"repro/internal/scheduler"
)

// streamDigest runs a campaign and hashes its full output: every
// record as one JSONL line, then the stream counters. Records are
// hashed as encoded bytes, not structs, so even a float formatting
// difference changes the digest.
func streamDigest(t *testing.T, cfg CampaignConfig) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	stats, err := RunCampaignStream(context.Background(), cfg, func(rec SlotRecord) error {
		return enc.Encode(rec)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.Slots * stats.Terminals; stats.Records != want {
		t.Fatalf("emitted %d records, want %d", stats.Records, want)
	}
	fmt.Fprintf(&buf, "%d %d %d %d %d\n", stats.Records, stats.Served, stats.Attempted, stats.Correct, stats.Failed)
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// The campaign digests below were produced by the reference
// implementations: fleetDigest by the linear visibility scan
// (scheduler and engine) and measuredDigest by brute-force
// dtw.Identify. The spatial index and the pruned dtw.Matcher
// reproduced both bit for bit at every worker count and cache setting
// before the reference paths left the production code. The layer-level
// oracles (constellation index vs AppendObserveFrom, dtw.Matcher vs
// dtw.Identify) keep guarding each layer; these tests guard their
// composition end to end.
const (
	fleetDigest    = "dbc7fed73add8f9c99981794510abc31237cab57dd7c688c3bdc9bb5ce6afd18"
	measuredDigest = "5e9cc6892d6b8c875f1a2a28e66bb2d1ac8aa6aa532b546ff9af3d7fac6f09d5"
)

// TestCampaignFleetIdentical pins the 40-terminal oracle fleet run to
// the linear scan's digest at workers 1 and 4, with a private and a
// shared snapshot cache.
func TestCampaignFleetIdentical(t *testing.T) {
	setupFixture(t)
	for _, workers := range []int{1, 4} {
		for _, share := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/shared=%v", workers, share), func(t *testing.T) {
				var cache *constellation.SnapshotCache
				if share {
					cache = constellation.NewSnapshotCache(0, nil)
				}
				sched, err := scheduler.NewGlobal(scheduler.Config{
					Constellation: fixture.cons,
					Terminals:     fleetTerminals(40),
					Seed:          123,
					Snapshots:     cache,
				})
				if err != nil {
					t.Fatal(err)
				}
				got := streamDigest(t, CampaignConfig{
					Scheduler:  sched,
					Identifier: fixture.ident,
					Start:      fixture.cons.Epoch.Add(3 * time.Hour),
					Slots:      8,
					Oracle:     true,
					Workers:    workers,
					Snapshots:  cache,
				})
				if got != fleetDigest {
					t.Errorf("digest = %s, want %s", got, fleetDigest)
				}
			})
		}
	}
}

// TestCampaignMatcherBruteIdentical pins the 24-slot measured run,
// whose identifications go through the pruned dtw.Matcher, to the
// brute-force matcher's digest at workers 1 and 4.
func TestCampaignMatcherBruteIdentical(t *testing.T) {
	setupFixture(t)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := streamDigest(t, CampaignConfig{
				Scheduler:  mustScheduler(t, fixture.cons, 123),
				Identifier: fixture.ident,
				Start:      fixture.cons.Epoch.Add(4 * time.Hour),
				Slots:      24,
				ResetEvery: 10,
				Workers:    workers,
			})
			if got != measuredDigest {
				t.Errorf("digest = %s, want %s", got, measuredDigest)
			}
		})
	}
}

// protectionDigests pins the 40-terminal 8-slot oracle fleet run at
// GSO protection half-angles other than the default, so a change to
// the exclusion geometry that happens to agree at 18° cannot slip
// through. Recorded from the per-belt-point acos scan that the geo
// package's TestGSOSeparationMatchesOracle keeps as its oracle.
var protectionDigests = map[float64]string{
	2:  "2f62f2050bf10893033a628822831a9f8608999590c5341c088488e94d081aaf",
	30: "c9c7907459ddf13cc7716d367acf117549b64950704c9175f0ca29a712f1f3f6",
}

// TestCampaignGSOProtectionDigest runs the fleet fixture at each
// pinned protection angle and checks the stream digest.
func TestCampaignGSOProtectionDigest(t *testing.T) {
	setupFixture(t)
	for _, deg := range []float64{2, 30} {
		t.Run(fmt.Sprintf("protection=%g", deg), func(t *testing.T) {
			sched, err := scheduler.NewGlobal(scheduler.Config{
				Constellation:    fixture.cons,
				Terminals:        fleetTerminals(40),
				Seed:             123,
				GSOProtectionDeg: deg,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := streamDigest(t, CampaignConfig{
				Scheduler:  sched,
				Identifier: fixture.ident,
				Start:      fixture.cons.Epoch.Add(3 * time.Hour),
				Slots:      8,
				Oracle:     true,
				Workers:    1,
			})
			if want := protectionDigests[deg]; got != want {
				t.Errorf("digest = %s, want %s", got, want)
			}
		})
	}
}
