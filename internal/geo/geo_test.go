package geo

import (
	"math"
	"testing"

	"repro/internal/astro"
	"repro/internal/units"
)

func TestStudyVantagePoints(t *testing.T) {
	vps := StudyVantagePoints()
	if len(vps) != 4 {
		t.Fatalf("got %d vantage points", len(vps))
	}
	names := map[string]bool{}
	for _, vp := range vps {
		names[vp.Name] = true
		if vp.Location.LatDeg < 40 {
			t.Errorf("%s: latitude %v, the paper's sites are all above 40N", vp.Name, vp.Location.LatDeg)
		}
	}
	for _, want := range []string{"Iowa", "New York", "Madrid", "Washington"} {
		if !names[want] {
			t.Errorf("missing vantage point %q", want)
		}
	}
	ny, err := VantagePointByName("New York")
	if err != nil {
		t.Fatal(err)
	}
	if ny.Mask == nil {
		t.Error("New York should carry the NW tree mask")
	}
	if _, err := VantagePointByName("Atlantis"); err == nil {
		t.Error("expected error for unknown site")
	}
}

func TestMaskBlocked(t *testing.T) {
	m := NewMask([]MaskSector{{AzFromDeg: 270, AzToDeg: 360, MinElevDeg: 55}})
	cases := []struct {
		az, el  float64
		blocked bool
	}{
		{300, 30, true},   // inside wedge, low
		{300, 60, false},  // inside wedge, above min elev
		{200, 30, false},  // outside wedge
		{359, 54.9, true}, // boundary
		{0, 30, true},     // 0 == 360 wraps into sector
		{10, 30, false},
	}
	for _, c := range cases {
		if got := m.Blocked(c.az, c.el); got != c.blocked {
			t.Errorf("Blocked(%v,%v) = %v, want %v", c.az, c.el, got, c.blocked)
		}
	}
}

func TestMaskWrapSector(t *testing.T) {
	m := NewMask([]MaskSector{{AzFromDeg: 350, AzToDeg: 20, MinElevDeg: 40}})
	if !m.Blocked(5, 30) || !m.Blocked(355, 30) {
		t.Error("wrap-around sector should block both sides of north")
	}
	if m.Blocked(180, 30) {
		t.Error("south should not be blocked")
	}
}

func TestNilMaskBlocksNothing(t *testing.T) {
	var m *Mask
	if m.Blocked(100, 5) {
		t.Error("nil mask blocked")
	}
}

// Excluded is the per-belt-point oracle for Separation's decision: one
// acos per visible belt point, then the minimum angle against the
// protection threshold. It was the production check before Separation
// replaced it.
func (g *GSOExclusion) Excluded(azDeg, elevDeg float64) bool {
	if len(g.beltDirs) == 0 {
		return false
	}
	d := dirFromLook(astro.LookAngles{ElevationDeg: elevDeg, AzimuthDeg: azDeg})
	min := math.Pi
	for _, b := range g.beltDirs {
		if a := d.AngleBetween(b); a < min {
			min = a
		}
	}
	return units.Rad2Deg(min) < g.protectionDeg
}

// MinSeparationDeg is the per-belt-point oracle for Separation's
// distance: the minimum of one acos per visible belt point, in
// degrees, or +Inf when no belt point is above the horizon.
func (g *GSOExclusion) MinSeparationDeg(azDeg, elevDeg float64) float64 {
	if len(g.beltDirs) == 0 {
		return math.Inf(1)
	}
	d := dirFromLook(astro.LookAngles{ElevationDeg: elevDeg, AzimuthDeg: azDeg})
	min := math.Pi
	for _, b := range g.beltDirs {
		if a := d.AngleBetween(b); a < min {
			min = a
		}
	}
	return units.Rad2Deg(min)
}

// sep returns Separation's distance alone.
func (g *GSOExclusion) sep(azDeg, elevDeg float64) float64 {
	s, _ := g.Separation(azDeg, elevDeg)
	return s
}

// excluded returns Separation's decision alone.
func (g *GSOExclusion) excluded(azDeg, elevDeg float64) bool {
	_, ex := g.Separation(azDeg, elevDeg)
	return ex
}

// TestGSOSeparationMatchesOracle checks Separation against the
// per-point acos scan: the distance bit for bit and the decision
// exactly, over sites in both hemispheres at fractional longitudes,
// at protection angles of 2, 18 and 30 degrees. Besides a sky grid it
// probes the places where the scans could disagree: directions midway
// between adjacent belt points, where the nearest point changes, and
// directions about one protection angle off the belt, where the
// decision flips.
func TestGSOSeparationMatchesOracle(t *testing.T) {
	lats := []float64{-80.5, -61.25, -41.661, -17.3, -0.18, 0, 9.75, 33.87, 47.606, 66.6, 80.9}
	lons := []float64{-179.37, -91.53, -3.704, 0, 0.5, 57.125, 151.21}
	angles := []float64{2, 18, 30}
	points := 0
	for _, lat := range lats {
		for _, lon := range lons {
			site := astro.Geodetic{LatDeg: lat, LonDeg: lon, AltKm: 0.1}
			var gs [3]*GSOExclusion
			for i, deg := range angles {
				gs[i] = NewGSOExclusion(site, deg)
			}
			check := func(az, el float64) {
				points++
				want := gs[0].MinSeparationDeg(az, el)
				for i, g := range gs {
					sep, ex := g.Separation(az, el)
					if math.Float64bits(sep) != math.Float64bits(want) {
						t.Fatalf("site %v prot %v (az %v, el %v): sep %v, oracle %v",
							site, angles[i], az, el, sep, want)
					}
					if wantEx := g.Excluded(az, el); ex != wantEx {
						t.Fatalf("site %v prot %v (az %v, el %v): excluded %v, oracle %v",
							site, angles[i], az, el, ex, wantEx)
					}
				}
			}
			for az := 0.3; az < 360; az += 13.3 {
				for el := -0.4; el <= 90; el += 3.7 {
					check(az, el)
				}
			}
			belt := gs[0].beltDirs
			if len(belt) < 2 {
				t.Fatalf("site %v sees %d belt points; the grid wants visible belts", site, len(belt))
			}
			for k := 1; k < len(belt); k++ {
				mid := belt[k-1].Add(belt[k]).Unit()
				az := units.WrapDeg360(units.Rad2Deg(math.Atan2(mid.X, mid.Y)))
				el := units.Rad2Deg(math.Asin(mid.Z))
				for _, off := range []float64{-2, 0, 2, 18, 30} {
					check(az, el+off)
				}
			}
		}
	}
	t.Logf("%d sky points matched at %d protection angles", points, len(angles))

	// A polar site sees no belt point: nothing is excluded and the
	// separation is infinite, as in the oracle.
	polar := NewGSOExclusion(astro.Geodetic{LatDeg: 89, LonDeg: 12.5}, 30)
	if n := len(polar.beltDirs); n != 0 {
		t.Fatalf("polar site sees %d belt points", n)
	}
	for _, el := range []float64{0, 10, 45, 89} {
		sep, ex := polar.Separation(180, el)
		if !math.IsInf(sep, 1) || ex || polar.Excluded(180, el) || !math.IsInf(polar.MinSeparationDeg(180, el), 1) {
			t.Errorf("polar site el %v: Separation = %v, %v; want +Inf, false", el, sep, ex)
		}
	}
}

// TestGSOBeltExactlySized checks the visible belt is stored without
// append slack.
func TestGSOBeltExactlySized(t *testing.T) {
	g := NewGSOExclusion(astro.Geodetic{LatDeg: 41.661, LonDeg: -91.530, AltKm: 0.2}, 0)
	if n, c := len(g.beltDirs), cap(g.beltDirs); n == 0 || n != c {
		t.Errorf("belt len %d cap %d, want equal and non-zero", n, c)
	}
}

func TestGSOExclusionNorthernSite(t *testing.T) {
	// For a site above 40N, the GSO belt sits to the south at moderate
	// elevation. Directions toward the southern belt must be excluded;
	// the northern sky must be clear.
	iowa := astro.Geodetic{LatDeg: 41.661, LonDeg: -91.530, AltKm: 0.2}
	g := NewGSOExclusion(iowa, 0)

	// Belt elevation at due south for lat 41.66: roughly 41-42 deg.
	if !g.excluded(180, 40) {
		t.Error("due-south mid-elevation direction should be excluded")
	}
	if g.excluded(0, 40) {
		t.Error("due-north direction should not be excluded")
	}
	if g.excluded(180, 85) {
		t.Error("near-zenith should not be excluded at 41N")
	}
}

func TestGSOExclusionSeparationMonotone(t *testing.T) {
	iowa := astro.Geodetic{LatDeg: 41.661, LonDeg: -91.530, AltKm: 0.2}
	g := NewGSOExclusion(iowa, 0)
	// Separation from the belt grows as we move up from the belt
	// elevation toward zenith at azimuth 180.
	s40 := g.sep(180, 40)
	s60 := g.sep(180, 60)
	s85 := g.sep(180, 85)
	if !(s40 < s60 && s60 < s85) {
		t.Errorf("separations not monotone: %v %v %v", s40, s60, s85)
	}
}

func TestGSOBeltElevationSanity(t *testing.T) {
	// The GSO belt's maximum elevation from latitude L is roughly
	// 90 - L - ~7 deg (parallax). For Iowa (41.7N) that's ~42 deg: the
	// separation at (180, 42) should be near zero.
	iowa := astro.Geodetic{LatDeg: 41.661, LonDeg: -91.530, AltKm: 0.2}
	g := NewGSOExclusion(iowa, 0)
	min := math.Inf(1)
	for el := 0.0; el < 90; el += 0.5 {
		if s := g.sep(180, el); s < min {
			min = s
		}
	}
	if min > 1.5 {
		t.Errorf("belt never approached due-south sky: min separation %v", min)
	}
}

func TestGSOExclusionForcesHighPointing(t *testing.T) {
	// The paper's rationale: at >40N the exclusion zone forces terminals
	// to point higher than the 25 deg minimum. Verify that a band of
	// southern sky at low-to-mid elevation is excluded while high
	// elevations stay usable.
	ny := astro.Geodetic{LatDeg: 42.444, LonDeg: -76.501, AltKm: 0.25}
	g := NewGSOExclusion(ny, 0)
	excludedLow := 0
	totalLow := 0
	for az := 120.0; az <= 240; az += 10 {
		for el := 25.0; el <= 45; el += 5 {
			totalLow++
			if g.excluded(az, el) {
				excludedLow++
			}
		}
	}
	if frac := float64(excludedLow) / float64(totalLow); frac < 0.5 {
		t.Errorf("only %.0f%% of low southern sky excluded, want most", frac*100)
	}
	for az := 0.0; az < 360; az += 30 {
		if g.excluded(az, 88) {
			t.Errorf("zenith-adjacent direction az=%v excluded", az)
		}
	}
}

func TestGSOExclusionCustomAngle(t *testing.T) {
	iowa := astro.Geodetic{LatDeg: 41.661, LonDeg: -91.530, AltKm: 0.2}
	narrow := NewGSOExclusion(iowa, 2)
	wide := NewGSOExclusion(iowa, 30)
	// A direction 10 deg above the belt: excluded by the wide zone only.
	if narrow.excluded(180, 52) {
		t.Error("narrow zone should not exclude 10 deg off the belt")
	}
	if !wide.excluded(180, 52) {
		t.Error("wide zone should exclude 10 deg off the belt")
	}
}
