package scheduler

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/astro"
	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/sgp4"
	"repro/internal/units"
)

// fixedEph propagates to one fixed TEME position at every time —
// synthetic geometry for deterministic-ordering tests.
type fixedEph struct {
	pos units.Vec3
}

func (f fixedEph) PropagateAt(time.Time) (sgp4.State, error) {
	return sgp4.State{Pos: f.pos}, nil
}

// TestAllocateScoreTieBreak is the golden test for the explicit score
// tie-break: satellites with identical scores (identical geometry,
// zero noise) must resolve to the lowest catalog number, regardless of
// the order the constellation lists them in.
func TestAllocateScoreTieBreak(t *testing.T) {
	epoch := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	slot := EpochStart(epoch.Add(time.Hour))
	pos := units.Vec3{X: units.EarthRadiusKm + 550}

	// Both orderings must produce the same winner.
	for _, ids := range [][]int{{44000, 44700}, {44700, 44000}} {
		var sats []*constellation.Satellite
		for _, id := range ids {
			sats = append(sats, &constellation.Satellite{
				ID:         id,
				Name:       "TIE",
				Launch:     epoch,
				Propagator: fixedEph{pos: pos},
			})
		}
		cons := &constellation.Constellation{Sats: sats, Epoch: epoch}

		// Place the terminal at the shared sub-satellite point so both
		// satellites sit at the zenith: identical elevation, identical
		// score terms. Zero noise, no GSO/battery/bent-pipe terms.
		ecef := astro.FrameAt(slot).ToECEF(pos)
		sub := astro.ECEFToGeodetic(ecef)
		term := Terminal{VantagePoint: geo.VantagePoint{
			Name:     "tie-term",
			Location: astro.Geodetic{LatDeg: sub.LatDeg, LonDeg: sub.LonDeg},
		}, Priority: 1}

		g, err := NewGlobal(Config{
			Constellation:    cons,
			Terminals:        []Terminal{term},
			Weights:          Weights{Elevation: 1}, // noise, load, charge weights zero
			GSOProtectionDeg: -1,
			DisableBattery:   true,
			GroundStations:   []astro.Geodetic{}, // non-nil empty: bent-pipe off
			Seed:             1,
		})
		if err != nil {
			t.Fatal(err)
		}
		allocs := g.Allocate(slot)
		if len(allocs) != 1 {
			t.Fatalf("got %d allocations, want 1", len(allocs))
		}
		if allocs[0].Candidates != 2 {
			t.Fatalf("candidates = %d, want 2 (order %v)", allocs[0].Candidates, ids)
		}
		if allocs[0].SatID != 44000 {
			t.Fatalf("tie broken to sat %d, want lowest ID 44000 (order %v)", allocs[0].SatID, ids)
		}
	}
}

// linearAllocDigest is the sha256 of the JSON-encoded allocations
// below as produced by the linear visibility scan (the scheduler's
// reference path before the spatial index became the only one).
const linearAllocDigest = "c4b5d49c6f73b3fec228b4474ef138d99e511bbfe1ceaffad2431bee509c6f88"

// TestAllocateIndexedMatchesLinear pins the determinism contract at
// the scheduler layer: the indexed controller must reproduce the
// linear scan's allocations slot after slot. Every chosen satellite is
// cross-checked against a linear scan of the same instant, and the
// whole allocation stream against the linear path's digest.
func TestAllocateIndexedMatchesLinear(t *testing.T) {
	cons := testConstellation(t)
	terms := testTerminals()
	g, err := NewGlobal(Config{
		Constellation: cons,
		Terminals:     terms,
		Seed:          11,
	})
	if err != nil {
		t.Fatal(err)
	}
	locs := make(map[string]astro.Geodetic, len(terms))
	for _, term := range terms {
		locs[term.Name] = term.Location
	}
	h := sha256.New()
	enc := json.NewEncoder(h)
	served := 0
	start := time.Date(2023, 3, 1, 12, 0, 12, 0, time.UTC)
	for slot := 0; slot < 12; slot++ {
		at := start.Add(time.Duration(slot) * Period)
		snap := cons.Snapshot(at)
		for _, a := range g.Allocate(at) {
			if err := enc.Encode(a); err != nil {
				t.Fatal(err)
			}
			if a.SatID == 0 {
				continue
			}
			served++
			var found bool
			for _, v := range constellation.ObserveFrom(locs[a.Terminal], snap, 25) {
				if v.Sat.ID != a.SatID {
					continue
				}
				found = true
				if v.Look.ElevationDeg != a.ElevationDeg || v.Look.AzimuthDeg != a.AzimuthDeg ||
					v.Look.RangeKm != a.RangeKm || v.Sunlit != a.Sunlit {
					t.Fatalf("slot %d terminal %s: indexed %+v != linear %+v", slot, a.Terminal, a, v)
				}
			}
			if !found {
				t.Fatalf("slot %d terminal %s: satellite %d not in the linear field of view", slot, a.Terminal, a.SatID)
			}
		}
	}
	if served == 0 {
		t.Fatal("no terminal was served")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != linearAllocDigest {
		t.Errorf("allocation digest = %s, want %s", got, linearAllocDigest)
	}
}
