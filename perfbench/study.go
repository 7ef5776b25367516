package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

// runStudy is the paper pipeline at medium scale over the four study
// terminals: a measured (non-oracle) campaign through paint, XOR and
// DTW identification, the chosen-only §5 accumulators and the §6
// dataset, then the quick-model §6 training.
func runStudy(seed int64, sz sizes, workers int, tr *tracer) (*rep, error) {
	t0 := time.Now()
	w, err := buildWorld(studyTerminals(), seed, workers, tr)
	if err != nil {
		return nil, err
	}
	r := &rep{setup: time.Since(t0)}

	t1 := time.Now()
	aoe := core.NewAOEAccumulator(27)
	az := core.NewAzimuthAccumulator(27)
	la := core.NewLaunchAccumulator("New York")
	su := core.NewSunlitAccumulator(27)
	ds := core.NewDatasetBuilder()
	dg := newDigest()
	sinks := []pipeline.Sink{
		pipeline.SinkFunc(func(rec *pipeline.Record) error { dg.record(rec); return nil }),
		pipeline.Where(pipeline.ChosenOnly(), pipeline.Feed(aoe)),
		pipeline.Where(pipeline.ChosenOnly(), pipeline.Feed(az)),
		pipeline.Where(pipeline.ChosenOnly(), pipeline.Feed(la)),
		pipeline.Where(pipeline.ChosenOnly(), pipeline.Feed(su)),
		pipeline.Where(pipeline.ChosenOnly(), pipeline.Feed(ds)),
	}
	cfg := w.campaign(sz.studySlots, false, workers)
	var stats *core.CampaignStats
	if tr == nil {
		src := &pipeline.Campaign{Config: cfg}
		p := &pipeline.Pipeline{Source: src, Sinks: sinks}
		if err := p.Run(context.Background()); err != nil {
			return nil, fmt.Errorf("study campaign: %w", err)
		}
		stats = src.Stats
	} else if stats, err = replayCampaign(w, cfg, sinks, tr); err != nil {
		return nil, fmt.Errorf("study replay: %w", err)
	}

	id := tr.begin("pipeline.sink")
	data, err := finishAnalyses(aoe, az, la, su, ds)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("study analyses: %w", err)
	}

	mcfg := experiments.QuickModelConfig(seed + 1)
	mcfg.Workers = workers
	var fits *ml.Metrics
	if tr != nil {
		fits = ml.NewMetrics(telemetry.NewRegistry())
		mcfg.Metrics = fits
	}
	id = tr.begin("ml.fit")
	model, err := core.TrainModel(data, mcfg)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("study model: %w", err)
	}
	if fits != nil {
		tr.count("ml.fits", float64(fits.FitSeconds.Count()))
		tr.count("ml.rows", float64(len(data.X)))
	}
	r.timed = time.Since(t1)

	// Identification failures (an unchanged or overlapping XOR diff) are
	// an outcome of the method, reported as failed_frac; the operations
	// counted here are the records, and any error aborts the run.
	r.records = stats.Records
	r.attempted = stats.Records
	r.digest = dg.sum()
	r.values = map[string]float64{
		"ident_accuracy": stats.Accuracy(),
		"model_top5":     model.ModelTopK[4],
		"base_top5":      model.BaselineTopK[4],
		"failed_frac":    frac(stats.Failed, stats.Attempted+stats.Failed),
	}
	r.keep = []any{w, model}
	return r, nil
}

// checkStudy holds the §4 and §6 headline claims: identification above
// 99% and a model that beats the most-populated-cluster baseline.
func checkStudy(r *rep) []string {
	var bad []string
	if v := r.values["ident_accuracy"]; v < 0.99 {
		bad = append(bad, fmt.Sprintf("ident_accuracy %.4f < 0.99", v))
	}
	if m, b := r.values["model_top5"], r.values["base_top5"]; m <= b {
		bad = append(bad, fmt.Sprintf("model_top5 %.4f not above baseline %.4f", m, b))
	}
	return bad
}

// finishAnalyses finalizes the §5 accumulators and returns the §6
// dataset.
func finishAnalyses(aoe *core.AOEAccumulator, az *core.AzimuthAccumulator, la *core.LaunchAccumulator,
	su *core.SunlitAccumulator, ds *core.DatasetBuilder) (*ml.Dataset, error) {
	if _, err := aoe.Finalize(); err != nil {
		return nil, err
	}
	if _, err := az.Finalize(); err != nil {
		return nil, err
	}
	if _, err := la.Finalize(); err != nil {
		return nil, err
	}
	if _, err := su.Finalize(); err != nil {
		return nil, err
	}
	return ds.Finalize()
}

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
