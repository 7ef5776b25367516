// Package geo defines the study's vantage points (the four terminals
// the paper deployed), per-site obstruction masks (the Ithaca terminal
// was blocked to the northwest by trees), and the ITU geostationary
// exclusion-zone constraint that shapes where the scheduler may point
// a terminal.
package geo

import (
	"fmt"
	"math"

	"repro/internal/astro"
	"repro/internal/units"
)

// VantagePoint is one terminal deployment site.
type VantagePoint struct {
	Name     string
	Location astro.Geodetic
	// UTCOffsetHours converts UTC to the site's local standard time for
	// the model's local-hour feature. (Fixed offsets; DST ignored.)
	UTCOffsetHours int
	// Mask is the site obstruction mask, nil when the sky is clear.
	Mask *Mask
	// PoP names the point of presence the terminal homes to.
	PoP string
}

// StudyVantagePoints returns the four sites from the paper: Midwest US
// (Iowa), Northeast US (Ithaca, NY), Western Europe (Madrid), and
// Northwest US (Washington state). The Ithaca site carries the
// northwest tree mask the paper §5.1 describes.
func StudyVantagePoints() []VantagePoint {
	return []VantagePoint{
		{
			Name:           "Iowa",
			Location:       astro.Geodetic{LatDeg: 41.661, LonDeg: -91.530, AltKm: 0.20},
			UTCOffsetHours: -6,
			PoP:            "chicago",
		},
		{
			Name:           "New York",
			Location:       astro.Geodetic{LatDeg: 42.444, LonDeg: -76.501, AltKm: 0.25},
			UTCOffsetHours: -5,
			PoP:            "newyork",
			// Severe tree obstruction to the north-west (az 270-360),
			// blocking everything below ~70 deg elevation there — the
			// paper reports the site received only 9.7% of its picks
			// from this quadrant vs 55.4% at unobstructed sites.
			Mask: NewMask([]MaskSector{{AzFromDeg: 270, AzToDeg: 360, MinElevDeg: 70}}),
		},
		{
			Name:           "Madrid",
			Location:       astro.Geodetic{LatDeg: 40.417, LonDeg: -3.704, AltKm: 0.65},
			UTCOffsetHours: 1,
			PoP:            "madrid",
		},
		{
			Name:           "Washington",
			Location:       astro.Geodetic{LatDeg: 47.606, LonDeg: -122.332, AltKm: 0.05},
			UTCOffsetHours: -8,
			PoP:            "seattle",
		},
	}
}

// SouthernVantagePoints returns sites for the paper's §8 future-work
// generalization: in the southern hemisphere the GSO belt sits in the
// *northern* sky, so the exclusion zone should mirror the scheduler's
// directional preference. An equatorial site is included as the
// degenerate case (belt overhead).
func SouthernVantagePoints() []VantagePoint {
	return []VantagePoint{
		{
			Name:           "Sydney",
			Location:       astro.Geodetic{LatDeg: -33.87, LonDeg: 151.21, AltKm: 0.05},
			UTCOffsetHours: 10,
			PoP:            "sydney",
		},
		{
			Name:           "Punta Arenas",
			Location:       astro.Geodetic{LatDeg: -53.16, LonDeg: -70.91, AltKm: 0.03},
			UTCOffsetHours: -3,
			PoP:            "santiago",
		},
		{
			Name:           "Quito",
			Location:       astro.Geodetic{LatDeg: -0.18, LonDeg: -78.47, AltKm: 2.85},
			UTCOffsetHours: -5,
			PoP:            "quito",
		},
	}
}

// VantagePointByName finds a study vantage point.
func VantagePointByName(name string) (VantagePoint, error) {
	for _, vp := range StudyVantagePoints() {
		if vp.Name == name {
			return vp, nil
		}
	}
	return VantagePoint{}, fmt.Errorf("geo: unknown vantage point %q", name)
}

// MaskSector is an azimuth wedge below whose MinElevDeg the sky is
// obstructed. The wedge spans clockwise from AzFromDeg to AzToDeg
// (both degrees from north); wrap-around sectors (e.g. 350→20) are
// supported.
type MaskSector struct {
	AzFromDeg  float64
	AzToDeg    float64
	MinElevDeg float64
}

// Mask is a set of obstruction sectors for one site.
type Mask struct {
	sectors []MaskSector
}

// NewMask builds a mask from sectors.
func NewMask(sectors []MaskSector) *Mask {
	return &Mask{sectors: append([]MaskSector(nil), sectors...)}
}

// Blocked reports whether a satellite at the given azimuth/elevation
// is hidden by the mask. A nil mask blocks nothing.
func (m *Mask) Blocked(azDeg, elevDeg float64) bool {
	if m == nil {
		return false
	}
	az := units.WrapDeg360(azDeg)
	for _, s := range m.sectors {
		if inSector(az, s.AzFromDeg, s.AzToDeg) && elevDeg < s.MinElevDeg {
			return true
		}
	}
	return false
}

func inSector(az, from, to float64) bool {
	from = units.WrapDeg360(from)
	to = units.WrapDeg360(to)
	if from <= to {
		return az >= from && az <= to
	}
	return az >= from || az <= to // wrap-around
}

// GSO exclusion. 47 CFR §25.289 protects geostationary networks: an
// NGSO space station may not transmit to a terminal when it lies close
// to the line between the terminal and the GSO arc. We implement the
// standard discrimination-angle test: for a satellite seen at
// elevation el and azimuth az from a terminal at latitude lat, compute
// the minimum angular separation between the satellite direction and
// any point of the geostationary belt as seen from the terminal, and
// exclude the satellite when that separation is below the protection
// threshold.
const (
	// GSOAltKm is the geostationary orbit altitude.
	GSOAltKm = 35786.0
	// DefaultGSOProtectionDeg is the discrimination half-angle within
	// which NGSO transmissions are excluded. SpaceX filings discuss
	// avoidance angles around this magnitude.
	DefaultGSOProtectionDeg = 18.0
)

// gsoBeltSamples is the number of belt points: one per whole degree
// of longitude.
const gsoBeltSamples = 360

// gsoBelt holds the ECEF positions of the sampled geostationary belt,
// at longitudes -180, -179, ..., 179. It depends only on constants, so
// it is computed once per process instead of once per site.
var gsoBelt = func() (belt [gsoBeltSamples]units.Vec3) {
	for i := range belt {
		belt[i] = astro.Geodetic{LatDeg: 0, LonDeg: float64(i - 180), AltKm: GSOAltKm}.ToECEF()
	}
	return belt
}()

// GSOExclusion evaluates the geostationary-arc avoidance constraint
// for one observer site. Construct once per site and reuse; the belt
// is sampled at construction.
type GSOExclusion struct {
	protectionDeg float64
	// beltDirs are unit vectors (ENU frame) toward sampled GSO belt
	// positions visible from the site, sized exactly to the visible
	// count.
	beltDirs []units.Vec3
}

// NewGSOExclusion samples the GSO belt as seen from obs. protectionDeg
// <= 0 selects DefaultGSOProtectionDeg. The belt is sampled at whole
// degrees of absolute longitude, so two sites at one latitude but
// different fractional longitudes see different sample points.
func NewGSOExclusion(obs astro.Geodetic, protectionDeg float64) *GSOExclusion {
	if protectionDeg <= 0 {
		protectionDeg = DefaultGSOProtectionDeg
	}
	o := astro.NewObserver(obs)
	// Keep the belt points above the horizon.
	var dirs [gsoBeltSamples]units.Vec3
	n := 0
	for i := range gsoBelt {
		la := o.Observe(gsoBelt[i])
		if la.ElevationDeg < 0 {
			continue
		}
		dirs[n] = dirFromLook(la)
		n++
	}
	g := &GSOExclusion{protectionDeg: protectionDeg, beltDirs: make([]units.Vec3, n)}
	copy(g.beltDirs, dirs[:n])
	return g
}

// dirFromLook converts look angles to a unit vector in the local
// east-north-up frame.
func dirFromLook(la astro.LookAngles) units.Vec3 {
	el := units.Deg2Rad(la.ElevationDeg)
	az := units.Deg2Rad(la.AzimuthDeg)
	return units.Vec3{
		X: math.Cos(el) * math.Sin(az), // east
		Y: math.Cos(el) * math.Cos(az), // north
		Z: math.Sin(el),                // up
	}
}

// Separation returns the angular distance, in degrees, from the
// direction (azDeg, elevDeg) to the nearest visible GSO belt point,
// and whether that direction falls inside the protected zone around
// the arc. A site with no belt point above the horizon (polar) returns
// +Inf, false.
//
// The scan keeps the largest cosine, each computed as
// units.Vec3.AngleBetween computes it, and takes a single acos at the
// end; acos is non-increasing, so the result equals the minimum of the
// per-point angles. TestGSOSeparationMatchesOracle checks it bit for
// bit against that per-point scan.
func (g *GSOExclusion) Separation(azDeg, elevDeg float64) (sepDeg float64, excluded bool) {
	if len(g.beltDirs) == 0 {
		return math.Inf(1), false
	}
	d := dirFromLook(astro.LookAngles{ElevationDeg: elevDeg, AzimuthDeg: azDeg})
	nd := d.Norm()
	maxCos := -1.0
	for _, b := range g.beltDirs {
		if c := units.Clamp(d.Dot(b)/(nd*b.Norm()), -1, 1); c > maxCos {
			maxCos = c
		}
	}
	sepDeg = units.Rad2Deg(math.Acos(maxCos))
	return sepDeg, sepDeg < g.protectionDeg
}
