package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"time"

	"repro/internal/astro"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/scheduler"
)

// world is one workload's program state: the constellation, the
// snapshot cache shared by the scheduler and the campaign engine, the
// ground-truth scheduler and the §4 identifier.
type world struct {
	cons  *constellation.Constellation
	snaps *constellation.SnapshotCache
	sched *scheduler.Global
	ident *core.Identifier
}

// buildWorld assembles a medium-scale world over terms. The seed drives
// the constellation's orbital jitter and the scheduler's RNG; workers
// is the snapshot propagation fan-out. A non-nil tracer records a span
// per layer constructor.
func buildWorld(terms []scheduler.Terminal, seed int64, workers int, tr *tracer) (*world, error) {
	shells, err := experiments.ShellsFor(experiments.Medium)
	if err != nil {
		return nil, err
	}
	w := &world{}
	id := tr.begin("constellation.new")
	w.cons, err = constellation.New(constellation.Config{Shells: shells, Seed: seed, SnapshotWorkers: workers})
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("build constellation: %w", err)
	}
	w.snaps = constellation.NewSnapshotCache(0, nil)
	w.snaps.SetSnapshotWorkers(workers)
	id = tr.begin("scheduler.setup")
	w.sched, err = scheduler.NewGlobal(scheduler.Config{
		Constellation: w.cons,
		Terminals:     terms,
		Seed:          seed,
		Snapshots:     w.snaps,
	})
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("build scheduler: %w", err)
	}
	id = tr.begin("core.identifier")
	w.ident, err = core.NewIdentifier(w.cons)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("build identifier: %w", err)
	}
	return w, nil
}

// start is the first campaign slot: one hour past the TLE epoch on the
// allocation grid, as every experiment starts.
func (w *world) start() time.Time {
	return scheduler.EpochStart(w.cons.Epoch.Add(time.Hour))
}

// campaign is the engine configuration of a campaign over this world;
// the traced replay follows the same fields.
func (w *world) campaign(slots int, oracle bool, workers int) core.CampaignConfig {
	return core.CampaignConfig{
		Scheduler:  w.sched,
		Identifier: w.ident,
		Start:      w.start(),
		Slots:      slots,
		Oracle:     oracle,
		Workers:    workers,
		Snapshots:  w.snaps,
	}
}

// studyTerminals are the paper's four measurement sites.
func studyTerminals() []scheduler.Terminal {
	var terms []scheduler.Terminal
	for _, vp := range geo.StudyVantagePoints() {
		terms = append(terms, scheduler.Terminal{VantagePoint: vp, Priority: 1})
	}
	return terms
}

// fleetTerminals spreads n terminals over the inhabited latitudes on a
// golden-angle spiral whose starting longitude is drawn from seed, so
// each seed places a different fleet with the same density.
func fleetTerminals(n int, seed int64) []scheduler.Terminal {
	const goldenDeg = 137.50776405003785
	offset := rand.New(rand.NewSource(seed)).Float64() * 360
	terms := make([]scheduler.Terminal, 0, n)
	for i := 0; i < n; i++ {
		frac := 0.5
		if n > 1 {
			frac = float64(i) / float64(n-1)
		}
		lon := math.Mod(offset+float64(i)*goldenDeg, 360) - 180
		terms = append(terms, scheduler.Terminal{VantagePoint: geo.VantagePoint{
			Name:           fmt.Sprintf("fleet-%06d", i),
			Location:       astro.Geodetic{LatDeg: -60 + 120*frac, LonDeg: lon},
			UTCOffsetHours: int(lon / 15),
		}, Priority: 1})
	}
	return terms
}

// digest is a sha256 over a canonical encoding of a stream of records
// or RPC answers, for comparing runs bit for bit.
type digest struct {
	h   hash.Hash
	buf []byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) { d.buf = binary.LittleEndian.AppendUint64(d.buf, v) }
func (d *digest) i64(v int64)  { d.u64(uint64(v)) }
func (d *digest) f64(v float64) {
	d.u64(math.Float64bits(v))
}
func (d *digest) flag(b bool) {
	if b {
		d.buf = append(d.buf, 1)
	} else {
		d.buf = append(d.buf, 0)
	}
}

// flush hashes the buffered encoding of one item.
func (d *digest) flush() {
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
}

// record folds one campaign record in: everything the analyses read,
// plus ground truth, the identification outcome and whether the slot
// was skipped (skip messages themselves are not compared).
func (d *digest) record(rec *core.SlotRecord) {
	d.buf = append(d.buf, rec.Terminal...)
	d.buf = append(d.buf, 0)
	d.i64(rec.SlotStart.UnixNano())
	d.i64(int64(rec.LocalHour))
	d.i64(int64(rec.TrueID))
	d.i64(int64(rec.IdentifiedID))
	d.i64(int64(rec.ChosenIdx))
	d.f64(rec.Margin)
	d.flag(rec.SkipReason != "")
	d.i64(int64(len(rec.Available)))
	for _, a := range rec.Available {
		d.i64(int64(a.ID))
		d.f64(a.ElevationDeg)
		d.f64(a.AzimuthDeg)
		d.f64(a.RangeKm)
		d.f64(a.AgeYears)
		d.flag(a.Sunlit)
	}
	d.flush()
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
