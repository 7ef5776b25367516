package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/obstruction"
	"repro/internal/scheduler"
	"repro/internal/sgp4"
)

// TestCandidateTracksSnapshotReuse: a snapshot shared through the
// campaign engine's SnapshotCache must give the same candidates as a
// fresh Identifier.Snapshot, the one live captures take, for both the
// Cartesian and the polar track paths.
func TestCandidateTracksSnapshotReuse(t *testing.T) {
	setupFixture(t)
	vp := fixture.sched.Terminals()[0].VantagePoint
	start := scheduler.EpochStart(fixture.cons.Epoch.Add(3 * time.Hour))
	fresh := fixture.ident.Snapshot(start)
	shared := constellation.NewSnapshotCache(0, nil).Acquire(fixture.cons, start)
	defer shared.Release()

	plain, droppedPlain := fixture.ident.CandidateTracksFromSnapshot(fresh, vp, start)
	fromCache, droppedCache := fixture.ident.CandidateTracksFromSnapshot(shared.States, vp, start)
	if droppedPlain != droppedCache {
		t.Errorf("dropped: fresh %d != shared %d", droppedPlain, droppedCache)
	}
	if len(plain) == 0 {
		t.Fatal("no candidates in view at the probe slot")
	}
	if !reflect.DeepEqual(plain, fromCache) {
		t.Error("candidate tracks differ between a fresh and a shared snapshot")
	}

	polarPlain, _ := fixture.ident.CandidatePolarTracksFromSnapshot(fresh, vp, start)
	polarCache, _ := fixture.ident.CandidatePolarTracksFromSnapshot(shared.States, vp, start)
	if len(polarPlain) == 0 {
		t.Fatal("no polar candidate tracks at the probe slot")
	}
	if !reflect.DeepEqual(polarPlain, polarCache) {
		t.Error("polar candidate tracks differ between a fresh and a shared snapshot")
	}
}

// failingEphemeris propagates successfully until the fuse blows, then
// returns an error on every call — the shape of a satellite whose
// elements go stale mid-campaign.
type failingEphemeris struct {
	inner sgp4.Ephemeris
	fuse  *int // remaining successful calls; shared across copies
}

func (f failingEphemeris) PropagateAt(t time.Time) (sgp4.State, error) {
	if *f.fuse <= 0 {
		return sgp4.State{}, errors.New("injected propagation failure")
	}
	*f.fuse--
	return f.inner.PropagateAt(t)
}

// TestDroppedCandidatesSurfaced: a propagation failure mid-slot must
// be reported through the dropped count, not silently delete the
// candidate — the satellite was in view, and it may be the true
// serving one.
func TestDroppedCandidatesSurfaced(t *testing.T) {
	cons, err := constellation.New(constellation.Config{
		Shells: []constellation.Shell{
			{Name: "s1", AltitudeKm: 550, InclinationDeg: 53, Planes: 24, SatsPerPlane: 22, PhasingF: 17},
		},
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ident, err := NewIdentifier(cons)
	if err != nil {
		t.Fatal(err)
	}
	vp := geo.StudyVantagePoints()[0]

	// Find a slot with at least one candidate in view.
	var slotStart time.Time
	var snap []constellation.SatState
	var inView []constellation.Visible
	for slot := 0; slot < 240; slot++ {
		slotStart = scheduler.EpochStart(cons.Epoch.Add(time.Hour)).Add(time.Duration(slot) * scheduler.Period)
		snap = cons.Snapshot(slotStart)
		inView = constellation.ObserveFrom(vp.Location, snap, ident.MinElevationDeg)
		if len(inView) > 0 {
			break
		}
	}
	if len(inView) == 0 {
		t.Skip("no slot with candidates in view")
	}
	baseline, dropped := ident.CandidateTracksFromSnapshot(snap, vp, slotStart)
	if dropped != 0 {
		t.Fatalf("healthy constellation dropped %d candidates", dropped)
	}

	// Blow the first in-view satellite's propagator: the snapshot is
	// already computed, so the failure lands inside sampleTrack.
	sat := inView[0].Sat
	orig := sat.Propagator
	fuse := 0
	sat.Propagator = failingEphemeris{inner: orig, fuse: &fuse}
	defer func() { sat.Propagator = orig }()

	cands, dropped := ident.CandidateTracksFromSnapshot(snap, vp, slotStart)
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	if len(cands) != len(baseline)-1 {
		t.Errorf("%d candidates after failure, want %d", len(cands), len(baseline)-1)
	}
	for _, c := range cands {
		if c.ID == sat.ID {
			t.Errorf("failed satellite %d still in candidate set", sat.ID)
		}
	}

	// The polar path (the §4 manual-check view) counts the same drop,
	// here with the failure landing mid-slot after seven good samples.
	fuse = 7
	polar, polarDropped := ident.CandidatePolarTracksFromSnapshot(snap, vp, slotStart)
	if polarDropped != 1 {
		t.Errorf("polar dropped = %d, want 1", polarDropped)
	}
	if _, ok := polar[sat.ID]; ok {
		t.Errorf("failed satellite %d still in polar candidate set", sat.ID)
	}
	if fuse != 0 {
		t.Errorf("fuse = %d after the polar pass, want the failure mid-slot", fuse)
	}

	// With every in-view propagator failing there are no candidates at
	// all; the error must say how many were dropped rather than claim
	// nothing was in view.
	for _, v := range inView {
		v := v
		f := 0
		if _, isFailing := v.Sat.Propagator.(failingEphemeris); !isFailing {
			keep := v.Sat.Propagator
			v.Sat.Propagator = failingEphemeris{inner: keep, fuse: &f}
			defer func() { v.Sat.Propagator = keep }()
		}
	}
	cands, dropped = ident.CandidateTracksFromSnapshot(snap, vp, slotStart)
	if len(cands) != 0 || dropped != len(inView) {
		t.Errorf("all-failing: %d candidates, dropped %d, want 0 and %d", len(cands), dropped, len(inView))
	}

	// The full identify path must report the drops, not claim nothing
	// was in view: paint a synthetic trajectory so the XOR stage
	// passes and the candidate stage is what fails.
	prev, cur := obstruction.New(), obstruction.New()
	var fake []obstruction.PolarPoint
	for i := 0; i <= 15; i++ {
		fake = append(fake, obstruction.PolarPoint{
			ElevationDeg: 35 + 2*float64(i),
			AzimuthDeg:   40 + 3*float64(i),
		})
	}
	cur.PaintTrack(fake)
	_, err = ident.IdentifyFromMaps(prev, cur, vp, slotStart, snap, nil)
	if err == nil {
		t.Fatal("identification succeeded with every candidate dropped")
	}
	if !strings.Contains(err.Error(), "dropped") {
		t.Errorf("error does not mention dropped candidates: %v", err)
	}
}
