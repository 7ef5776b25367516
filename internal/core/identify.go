package core

import (
	"fmt"
	"time"

	"repro/internal/astro"
	"repro/internal/constellation"
	"repro/internal/dtw"
	"repro/internal/geo"
	"repro/internal/obstruction"
	"repro/internal/scheduler"
)

// Identifier implements the paper's §4 technique: isolate the newest
// obstruction-map trajectory by XOR-ing consecutive snapshots, convert
// its pixels to sky coordinates, and match against the SGP4-propagated
// tracks of every candidate satellite by dynamic time warping.
type Identifier struct {
	cons *constellation.Constellation
	// MinElevationDeg is the visibility mask (default 25).
	MinElevationDeg float64
	// UseNaiveMatcher switches to the nearest-endpoint ablation
	// baseline instead of DTW.
	UseNaiveMatcher bool
}

// NewIdentifier builds an identifier over public TLE data.
func NewIdentifier(cons *constellation.Constellation) (*Identifier, error) {
	if cons == nil {
		return nil, fmt.Errorf("core: nil constellation")
	}
	return &Identifier{cons: cons, MinElevationDeg: 25}, nil
}

// sampleStep spaces the sky-track samples: 16 points per 15-second
// slot, both ends included.
const sampleStep = time.Second

// Snapshot propagates the identifier's constellation to t. Live
// captures share one snapshot per slot between the available-set
// computation and identification, exactly like the campaign engines.
func (id *Identifier) Snapshot(t time.Time) []constellation.SatState {
	return id.cons.Snapshot(t)
}

// CandidateTracksFromSnapshot samples the projected sky-track of every
// satellite in the terminal's field of view over the slot, reading the
// field of view from snap, the constellation snapshot at slotStart.
// The campaign engine shares one snapshot per slot across terminals
// and workers, so the hot identification loop never re-propagates the
// full constellation. The second return is the number of in-view
// candidates dropped because propagation failed mid-slot; a dropped
// candidate is distinguishable from one that was simply below the mask
// all slot, because the (possibly true) serving satellite may be among
// the dropped.
func (id *Identifier) CandidateTracksFromSnapshot(snap []constellation.SatState, vp geo.VantagePoint, slotStart time.Time) ([]dtw.Candidate, int) {
	fov := constellation.ObserveFrom(vp.Location, snap, id.MinElevationDeg)
	cands := make([]dtw.Candidate, 0, len(fov))
	dropped := 0
	for _, v := range fov {
		track, err := id.sampleTrack(v.Sat, vp.Location, slotStart)
		if err != nil {
			dropped++
			continue
		}
		if len(track) == 0 {
			continue // below the mask for the whole slot
		}
		cands = append(cands, dtw.Candidate{ID: v.Sat.ID, Track: track})
	}
	return cands, dropped
}

// CandidatePolarTracksFromSnapshot returns every in-view satellite's
// above-mask sky-track over the slot in polar form, keyed by satellite
// ID — the input for skyplot.Validation, the §4 manual-check rendering.
// Like CandidateTracksFromSnapshot it reads the field of view from
// snap, the constellation snapshot at slotStart, propagates each
// in-view satellite across the slot exactly once, and also returns the
// number of in-view candidates dropped because propagation failed
// mid-slot.
func (id *Identifier) CandidatePolarTracksFromSnapshot(snap []constellation.SatState, vp geo.VantagePoint, slotStart time.Time) (map[int][]obstruction.PolarPoint, int) {
	fov := constellation.ObserveFrom(vp.Location, snap, id.MinElevationDeg)
	out := make(map[int][]obstruction.PolarPoint, len(fov))
	dropped := 0
	for _, v := range fov {
		pts, err := samplePolarTrack(v.Sat, vp.Location, slotStart)
		if err != nil {
			dropped++
			continue
		}
		var masked []obstruction.PolarPoint
		for _, p := range pts {
			if p.ElevationDeg >= id.MinElevationDeg {
				masked = append(masked, p)
			}
		}
		if len(masked) > 0 {
			out[v.Sat.ID] = masked
		}
	}
	return out, dropped
}

// slotTrack samples one satellite's look angles across the slot,
// below-mask points included. A propagation error aborts the track:
// the caller decides whether that means "drop the candidate" or "fail
// the call".
func slotTrack(sat *constellation.Satellite, obs astro.Geodetic, slotStart time.Time) ([]astro.LookAngles, error) {
	looks, err := sat.Track(obs, slotStart, scheduler.Period, sampleStep)
	if err != nil {
		return nil, fmt.Errorf("core: propagate %d: %w", sat.ID, err)
	}
	return looks, nil
}

// samplePolarTrack is slotTrack in polar form.
func samplePolarTrack(sat *constellation.Satellite, obs astro.Geodetic, slotStart time.Time) ([]obstruction.PolarPoint, error) {
	looks, err := slotTrack(sat, obs, slotStart)
	if err != nil {
		return nil, err
	}
	pts := make([]obstruction.PolarPoint, len(looks))
	for i, la := range looks {
		pts[i] = obstruction.PolarPoint{ElevationDeg: la.ElevationDeg, AzimuthDeg: la.AzimuthDeg}
	}
	return pts, nil
}

// sampleTrack is slotTrack's above-mask points projected onto the plot
// plane. A propagation error is surfaced, not conflated with "below
// the mask all slot": a transient SGP4 failure mid-slot must not
// silently delete a possibly true serving satellite from the candidate
// set.
func (id *Identifier) sampleTrack(sat *constellation.Satellite, obs astro.Geodetic, slotStart time.Time) ([]dtw.Point, error) {
	looks, err := slotTrack(sat, obs, slotStart)
	if err != nil {
		return nil, err
	}
	out := make([]dtw.Point, 0, len(looks))
	for _, la := range looks {
		if la.ElevationDeg < id.MinElevationDeg {
			continue
		}
		out = append(out, dtw.FromPolar(obstruction.PolarPoint{ElevationDeg: la.ElevationDeg, AzimuthDeg: la.AzimuthDeg}))
	}
	return out, nil
}

// Identification is the outcome of one slot's §4 matching.
type Identification struct {
	Terminal  string
	SlotStart time.Time
	SatID     int     // identified satellite
	Distance  float64 // DTW distance of the winner
	Margin    float64 // runner-up distance minus winner distance
	// TrackLen is the number of sky points recovered from the XOR diff.
	TrackLen int
	// Dropped is the number of in-view candidates lost to propagation
	// errors mid-slot. Non-zero means the candidate set was incomplete
	// and the identification should be treated with suspicion.
	Dropped int
}

// IdentifyFromMaps runs the full §4 pipeline on two consecutive
// obstruction-map snapshots: XOR them, list the candidates in view in
// snap (the constellation snapshot at slotStart, see Snapshot), and
// match them by DTW through matcher. A nil matcher uses a fresh one;
// the campaign engine passes one per worker so its scratch buffers and
// pruning bars amortize across the whole run. Pruning is exact, so the
// result does not depend on the matcher's history.
func (id *Identifier) IdentifyFromMaps(prev, cur *obstruction.Map, vp geo.VantagePoint, slotStart time.Time, snap []constellation.SatState, matcher *dtw.Matcher) (Identification, error) {
	diff := obstruction.XOR(prev, cur)
	track := diff.Track()
	if len(track) < 2 {
		return Identification{}, fmt.Errorf("core: slot %v at %s: XOR diff has %d points (satellite unchanged or overlapping trajectory)",
			slotStart, vp.Name, len(track))
	}
	observed := dtw.FromPolarTrack(track)
	cands, dropped := id.CandidateTracksFromSnapshot(snap, vp, slotStart)
	if len(cands) == 0 {
		return Identification{}, fmt.Errorf("core: slot %v at %s: no candidate satellites in view (%d dropped by propagation errors)", slotStart, vp.Name, dropped)
	}
	out := Identification{Terminal: vp.Name, SlotStart: slotStart, TrackLen: len(track), Dropped: dropped}
	if id.UseNaiveMatcher {
		m, err := dtw.NaiveNearestEndpoint(observed, cands)
		if err != nil {
			return Identification{}, fmt.Errorf("core: naive match at %s: %w", vp.Name, err)
		}
		out.SatID = m.ID
		out.Distance = m.Distance
		return out, nil
	}
	if matcher == nil {
		matcher = &dtw.Matcher{}
	}
	best, margin, err := matcher.Identify(observed, cands)
	if err != nil {
		return Identification{}, fmt.Errorf("core: dtw match at %s: %w", vp.Name, err)
	}
	out.SatID = best.ID
	out.Distance = best.Distance
	out.Margin = margin
	return out, nil
}

// ServingTrack samples the serving satellite's sky-track for a slot
// the way dish firmware records it: look angles sampled along the
// slot, including below-mask points (PaintTrack clips them).
func (id *Identifier) ServingTrack(satID int, vp geo.VantagePoint, slotStart time.Time) ([]obstruction.PolarPoint, error) {
	sat := id.cons.ByID(satID)
	if sat == nil {
		return nil, fmt.Errorf("core: unknown satellite %d", satID)
	}
	return samplePolarTrack(sat, vp.Location, slotStart)
}

// PaintServingTrack renders the serving satellite's sky-track for a
// slot into the map, drawn as a connected stroke.
func (id *Identifier) PaintServingTrack(m *obstruction.Map, satID int, vp geo.VantagePoint, slotStart time.Time) error {
	pts, err := id.ServingTrack(satID, vp, slotStart)
	if err != nil {
		return err
	}
	m.PaintTrack(pts)
	return nil
}
