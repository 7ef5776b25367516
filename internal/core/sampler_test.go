package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/astro"
	"repro/internal/constellation"
	"repro/internal/dtw"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/obstruction"
	"repro/internal/scheduler"
	"repro/internal/units"
)

// perCallECEF is the TEME→ECEF rotation evaluated afresh for one
// instant, the way every sample used to ground its state.
func perCallECEF(pos units.Vec3, t time.Time) units.Vec3 {
	theta := astro.GMST(t)
	c, s := math.Cos(theta), math.Sin(theta)
	return units.Vec3{X: c*pos.X + s*pos.Y, Y: -s*pos.X + c*pos.Y, Z: pos.Z}
}

// oracleLooks is the per-sample sky-track path the one sampler
// replaced: for each one-second instant of the slot, PropagateAt, a
// per-call rotation, and astro.Observe with a freshly built observer.
func oracleLooks(sat *constellation.Satellite, obs astro.Geodetic, slotStart time.Time) ([]astro.LookAngles, error) {
	var out []astro.LookAngles
	for dt := time.Duration(0); dt <= scheduler.Period; dt += time.Second {
		t := slotStart.Add(dt)
		st, err := sat.Propagator.PropagateAt(t)
		if err != nil {
			return nil, err
		}
		out = append(out, astro.Observe(obs, perCallECEF(st.Pos, t)))
	}
	return out, nil
}

// oracleRTT is the propagation-only RTT formula MotionVsReallocation
// carried as its own copy before it called netsim.PropagationRTTms.
func oracleRTT(sat *constellation.Satellite, term, pop astro.Geodetic, t time.Time) (float64, error) {
	st, err := sat.Propagator.PropagateAt(t)
	if err != nil {
		return 0, err
	}
	ecef := perCallECEF(st.Pos, t)
	up := ecef.Sub(term.ToECEF()).Norm()
	down := ecef.Sub(pop.ToECEF()).Norm()
	return 2 * (up + down) / units.SpeedOfLightKmPerSec * 1000, nil
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSkyTrackMatchesPerSampleOracle pins the one sky-track sampler
// (Satellite.Track with a hoisted observer and one Frame per instant)
// and both core filters over it bit for bit to the per-sample oracle,
// at random sites and slots on both propagators. The netsim
// propagation RTT is pinned to its former copy the same way.
func TestSkyTrackMatchesPerSampleOracle(t *testing.T) {
	pops := geo.StudyPoPs()
	for _, kepler := range []bool{false, true} {
		cons, err := constellation.New(constellation.Config{
			Shells: []constellation.Shell{
				{Name: "s1", AltitudeKm: 550, InclinationDeg: 53, Planes: 24, SatsPerPlane: 22, PhasingF: 17},
				{Name: "s2", AltitudeKm: 570, InclinationDeg: 70, Planes: 10, SatsPerPlane: 12, PhasingF: 5},
			},
			Seed:        9,
			UseKeplerJ2: kepler,
		})
		if err != nil {
			t.Fatal(err)
		}
		ident, err := NewIdentifier(cons)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(23))
		checked := 0
		for trial := 0; trial < 40; trial++ {
			obs := astro.Geodetic{LatDeg: rng.Float64()*130 - 65, LonDeg: rng.Float64()*360 - 180, AltKm: rng.Float64()}
			pop := pops[rng.Intn(len(pops))].Location
			slot := scheduler.EpochStart(cons.Epoch.Add(time.Duration(rng.Int63n(int64(72 * time.Hour)))))
			sats := []*constellation.Satellite{cons.Sats[rng.Intn(len(cons.Sats))]} // mostly below the horizon
			for _, v := range constellation.ObserveFrom(obs, cons.Snapshot(slot), ident.MinElevationDeg) {
				sats = append(sats, v.Sat)
			}
			for _, sat := range sats {
				want, err := oracleLooks(sat, obs, slot)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sat.Track(obs, slot, scheduler.Period, sampleStep)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) || len(got) != 16 {
					t.Fatalf("satellite %d: %d samples, oracle %d, want 16", sat.ID, len(got), len(want))
				}
				for i := range want {
					g, w := got[i], want[i]
					if !sameFloat(g.ElevationDeg, w.ElevationDeg) || !sameFloat(g.AzimuthDeg, w.AzimuthDeg) || !sameFloat(g.RangeKm, w.RangeKm) {
						t.Fatalf("kepler=%v satellite %d sample %d: %+v, oracle %+v", kepler, sat.ID, i, g, w)
					}
				}

				polar, err := samplePolarTrack(sat, obs, slot)
				if err != nil {
					t.Fatal(err)
				}
				proj, err := ident.sampleTrack(sat, obs, slot)
				if err != nil {
					t.Fatal(err)
				}
				var wantProj []dtw.Point
				for i, w := range want {
					if !sameFloat(polar[i].ElevationDeg, w.ElevationDeg) || !sameFloat(polar[i].AzimuthDeg, w.AzimuthDeg) {
						t.Fatalf("satellite %d polar sample %d: %+v, oracle %+v", sat.ID, i, polar[i], w)
					}
					if w.ElevationDeg < ident.MinElevationDeg {
						continue
					}
					wantProj = append(wantProj, dtw.FromPolar(obstruction.PolarPoint{ElevationDeg: w.ElevationDeg, AzimuthDeg: w.AzimuthDeg}))
				}
				if len(proj) != len(wantProj) {
					t.Fatalf("satellite %d: %d projected points, oracle %d", sat.ID, len(proj), len(wantProj))
				}
				for i := range wantProj {
					if !sameFloat(proj[i].X, wantProj[i].X) || !sameFloat(proj[i].Y, wantProj[i].Y) {
						t.Fatalf("satellite %d projected point %d: %+v, oracle %+v", sat.ID, i, proj[i], wantProj[i])
					}
				}

				for _, at := range []time.Time{slot, slot.Add(scheduler.Period)} {
					got, err := netsim.PropagationRTTms(sat, obs, pop, at)
					if err != nil {
						t.Fatal(err)
					}
					want, _ := oracleRTT(sat, obs, pop, at)
					if !sameFloat(got, want) {
						t.Fatalf("satellite %d RTT at %v: %v ms, oracle %v ms", sat.ID, at, got, want)
					}
				}
				checked++
			}
		}
		if checked < 100 {
			t.Fatalf("kepler=%v: only %d tracks checked", kepler, checked)
		}
	}
}
