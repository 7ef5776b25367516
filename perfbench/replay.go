package main

import (
	"fmt"
	"time"

	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/dtw"
	"repro/internal/obstruction"
	"repro/internal/pipeline"
	"repro/internal/scheduler"
)

// resetEvery is core.CampaignConfig's default dish reset cadence in
// slots (10 minutes), which every campaign here runs with.
const resetEvery = 40

// replayCampaign is the traced serial replay of core.RunCampaignStream:
// it calls each layer's public function in the order the serial engine
// does and records a span and counters around every call. The records
// it feeds to sinks must equal the engine's bit for bit; the caller
// checks that through the record digest.
func replayCampaign(w *world, cfg core.CampaignConfig, sinks []pipeline.Sink, tr *tracer) (*core.CampaignStats, error) {
	terms := w.sched.Terminals()
	maps := make([]*obstruction.Map, len(terms))
	if !cfg.Oracle {
		for i := range maps {
			maps[i] = obstruction.New()
		}
	}
	matcher := &dtw.Matcher{}
	stats := &core.CampaignStats{Slots: cfg.Slots, Terminals: len(terms)}
	start := scheduler.EpochStart(cfg.Start)
	for slot := 0; slot < cfg.Slots; slot++ {
		slotStart := start.Add(time.Duration(slot) * scheduler.Period)
		id := tr.begin("constellation.acquire")
		shared := w.snaps.Acquire(w.cons, slotStart)
		tr.end(id)
		tr.count("constellation.acquires", 1)
		tr.count("constellation.skipped", float64(shared.Skipped()))
		stats.PropagationSkips += shared.Skipped()

		id = tr.begin("constellation.index")
		ix := shared.Index()
		tr.end(id)

		id = tr.begin("scheduler.allocate")
		allocs := w.sched.Allocate(slotStart)
		tr.end(id)
		if len(allocs) != len(terms) {
			shared.Release()
			return nil, fmt.Errorf("replay: slot %d: %d allocations for %d terminals", slot, len(allocs), len(terms))
		}
		tr.count("scheduler.allocations", float64(len(allocs)))
		for _, a := range allocs {
			if a.SatID != 0 {
				tr.count("scheduler.served", 1)
			}
		}

		if !cfg.Oracle && slot%resetEvery == 0 && slot > 0 {
			for _, m := range maps {
				m.Reset()
			}
		}

		for ti, t := range terms {
			alloc := allocs[ti]
			if alloc.Terminal != t.Name {
				shared.Release()
				return nil, fmt.Errorf("replay: slot %d: allocation %d is for %q, not %q", slot, ti, alloc.Terminal, t.Name)
			}
			id = tr.begin("core.visible")
			avail := core.AvailableSetIndexed(ix, t.VantagePoint, slotStart, w.ident.MinElevationDeg)
			tr.end(id)
			tr.count("core.visible_queries", 1)
			tr.count("core.visible_sats", float64(len(avail)))

			rec := core.SlotRecord{
				Observation: core.Observation{
					Terminal:  t.Name,
					SlotStart: slotStart,
					LocalHour: core.LocalHour(t.VantagePoint, slotStart),
					Available: avail,
					ChosenIdx: -1,
				},
				TrueID: alloc.SatID,
			}
			switch {
			case alloc.SatID == 0:
				rec.SkipReason = "no satellite allocated"
			case cfg.Oracle:
				rec.IdentifiedID = alloc.SatID
				rec.ChosenIdx = indexOf(avail, alloc.SatID)
				if rec.ChosenIdx < 0 {
					rec.SkipReason = "allocated satellite not in public available set"
				}
			default:
				identifySlot(w, maps[ti], matcher, t, slotStart, shared.States, alloc, &rec, stats, tr)
			}

			stats.Records++
			if rec.ChosenIdx >= 0 {
				stats.Served++
			}
			id = tr.begin("pipeline.sink")
			for _, s := range sinks {
				if err := s.Consume(&rec); err != nil {
					tr.end(id)
					shared.Release()
					return nil, err
				}
			}
			tr.end(id)
			tr.count("pipeline.records", 1)
		}
		shared.Release()
	}
	id := tr.begin("pipeline.sink")
	for _, s := range sinks {
		if err := s.Flush(); err != nil {
			tr.end(id)
			return nil, err
		}
	}
	tr.end(id)

	ms := matcher.Stats
	tr.count("dtw.candidates", float64(ms.Candidates))
	tr.count("dtw.pruned", float64(ms.KimPruned+ms.EnvelopePruned))
	tr.count("dtw.passes_run", float64(ms.PassesRun))
	tr.count("dtw.passes_abandoned", float64(ms.PassesAbandoned))
	return stats, nil
}

// identifySlot is the §4 step of one (slot, terminal) cell, split into
// the calls Identifier.IdentifyFromMapsMatcher makes so each gets its
// own span: paint the serving track, XOR against the previous map,
// sample candidate tracks from the shared snapshot, DTW-match.
func identifySlot(w *world, m *obstruction.Map, matcher *dtw.Matcher, t scheduler.Terminal,
	slotStart time.Time, snap []constellation.SatState, alloc scheduler.Allocation,
	rec *core.SlotRecord, stats *core.CampaignStats, tr *tracer) {
	id := tr.begin("obstruction.clone")
	prev := m.Clone()
	tr.end(id)

	id = tr.begin("obstruction.paint")
	err := w.ident.PaintServingTrack(m, alloc.SatID, t.VantagePoint, slotStart)
	tr.end(id)
	if err != nil {
		rec.SkipReason = err.Error()
		return
	}

	id = tr.begin("obstruction.xor")
	track := obstruction.XOR(prev, m).Track()
	tr.end(id)
	tr.count("obstruction.track_px", float64(len(track)))
	tr.count("identify.attempts", 1)
	if len(track) < 2 {
		rec.SkipReason = "XOR diff too short"
		stats.Failed++
		tr.count("identify.failed", 1)
		return
	}

	id = tr.begin("identify.candidates")
	cands, dropped := w.ident.CandidateTracksFromSnapshot(snap, t.VantagePoint, slotStart)
	tr.end(id)
	tr.count("identify.candidates", float64(len(cands)))
	tr.count("identify.dropped", float64(dropped))
	if len(cands) == 0 {
		rec.SkipReason = "no candidate satellites in view"
		stats.Failed++
		tr.count("identify.failed", 1)
		return
	}

	id = tr.begin("dtw.match")
	best, margin, err := matcher.Identify(dtw.FromPolarTrack(track), cands)
	tr.end(id)
	if err != nil {
		rec.SkipReason = err.Error()
		stats.Failed++
		tr.count("identify.failed", 1)
		return
	}
	stats.Attempted++
	rec.IdentifiedID = best.ID
	rec.Margin = margin
	if best.ID == alloc.SatID {
		stats.Correct++
	}
	rec.ChosenIdx = indexOf(rec.Available, best.ID)
	if rec.ChosenIdx < 0 {
		rec.SkipReason = "identified satellite not in public available set"
	}
}

// indexOf finds a satellite in an available set, -1 if absent.
func indexOf(avail []core.SatObs, id int) int {
	for i, a := range avail {
		if a.ID == id {
			return i
		}
	}
	return -1
}
