package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// runFleet is an oracle campaign over a seeded golden-angle fleet: the
// set-up builds one GSO exclusion per terminal inside
// scheduler.NewGlobal, and each slot allocates the whole fleet and
// answers every terminal's available set from the spatial index.
// Identification and the model are bypassed.
func runFleet(seed int64, sz sizes, workers int, tr *tracer) (*rep, error) {
	t0 := time.Now()
	w, err := buildWorld(fleetTerminals(sz.fleetTerminals, seed), seed, workers, tr)
	if err != nil {
		return nil, err
	}
	r := &rep{setup: time.Since(t0)}

	t1 := time.Now()
	dg := newDigest()
	sinks := []pipeline.Sink{pipeline.SinkFunc(func(rec *pipeline.Record) error { dg.record(rec); return nil })}
	cfg := w.campaign(sz.fleetSlots, true, workers)
	var stats *core.CampaignStats
	if tr == nil {
		src := &pipeline.Campaign{Config: cfg}
		p := &pipeline.Pipeline{Source: src, Sinks: sinks}
		if err := p.Run(context.Background()); err != nil {
			return nil, fmt.Errorf("fleet campaign: %w", err)
		}
		stats = src.Stats
	} else if stats, err = replayCampaign(w, cfg, sinks, tr); err != nil {
		return nil, fmt.Errorf("fleet replay: %w", err)
	}
	r.timed = time.Since(t1)

	r.records = stats.Records
	// The operations that can fail here are satellite propagations, one
	// per satellite per slot.
	r.attempted = stats.Slots * w.cons.Len()
	r.failed = stats.PropagationSkips
	r.digest = dg.sum()
	r.values = map[string]float64{
		"served":      float64(stats.Served),
		"failed_frac": frac(r.failed, r.attempted),
	}
	r.keep = w
	return r, nil
}
