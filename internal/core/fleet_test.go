package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/astro"
	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/scheduler"
	"repro/internal/sgp4"
)

// fleetTerminals spreads n synthetic terminals over the inhabited
// latitudes on a golden-angle spiral — a fleet-scale stand-in for the
// paper's four study sites.
func fleetTerminals(n int) []scheduler.Terminal {
	const goldenDeg = 137.50776405003785
	terms := make([]scheduler.Terminal, 0, n)
	for i := 0; i < n; i++ {
		frac := 0.5
		if n > 1 {
			frac = float64(i) / float64(n-1)
		}
		lat := -60 + 120*frac
		lon := math.Mod(float64(i)*goldenDeg, 360) - 180
		terms = append(terms, scheduler.Terminal{VantagePoint: geo.VantagePoint{
			Name:           fmt.Sprintf("fleet-%06d", i),
			Location:       astro.Geodetic{LatDeg: lat, LonDeg: lon},
			UTCOffsetHours: int(lon / 15),
		}, Priority: 1})
	}
	return terms
}

// brokenEph always fails, standing in for decayed elements.
type brokenEph struct{}

func (b brokenEph) PropagateAt(time.Time) (sgp4.State, error) {
	return sgp4.State{}, errors.New("stale elements")
}

// TestCampaignStatsPropagationSkips checks the bugfix for silently
// shrinking snapshots: a failing satellite must be counted in
// CampaignStats (once per slot) and in the constellation's per-sat
// accounting, on both engines.
func TestCampaignStatsPropagationSkips(t *testing.T) {
	for _, workers := range []int{1, 3} {
		cons, err := constellation.New(constellation.Config{
			Shells: []constellation.Shell{
				{Name: "mini", AltitudeKm: 550, InclinationDeg: 53, Planes: 8, SatsPerPlane: 8, PhasingF: 3},
			},
			Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		cons.Sats[5].Propagator = brokenEph{}

		ident, err := NewIdentifier(cons)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := scheduler.NewGlobal(scheduler.Config{
			Constellation: cons,
			Terminals:     fleetTerminals(6),
			Seed:          4,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := CampaignConfig{
			Scheduler:  sched,
			Identifier: ident,
			Start:      cons.Epoch.Add(time.Hour),
			Slots:      5,
			Oracle:     true,
			Workers:    workers,
		}
		stats, err := RunCampaignStream(context.Background(), cfg, func(SlotRecord) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if stats.PropagationSkips != cfg.Slots {
			t.Fatalf("workers=%d: PropagationSkips = %d, want %d (one per slot)",
				workers, stats.PropagationSkips, cfg.Slots)
		}
		total, bySat := cons.PropagationSkips()
		if total < int64(cfg.Slots) {
			t.Fatalf("workers=%d: constellation total = %d, want >= %d", workers, total, cfg.Slots)
		}
		if len(bySat) != 1 || bySat[cons.Sats[5].ID] != "stale elements" {
			t.Fatalf("workers=%d: bySat = %v, want the one broken satellite", workers, bySat)
		}
	}
}
