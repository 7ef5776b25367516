package pipeline_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pipeline"
)

// goldenEnv builds a small fixed-seed environment.
func goldenEnv(t *testing.T, workers int) *experiments.Env {
	t.Helper()
	env, err := experiments.NewEnv(experiments.Config{
		Scale:   experiments.Small,
		Seed:    7,
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// engineRecords runs a campaign straight through the engine, outside
// any pipeline, and keeps every record plus the served observations.
func engineRecords(t *testing.T, cfg core.CampaignConfig) ([]core.SlotRecord, []core.Observation, *core.CampaignStats) {
	t.Helper()
	var recs []core.SlotRecord
	var obs []core.Observation
	stats, err := core.RunCampaignStream(context.Background(), cfg, func(rec core.SlotRecord) error {
		recs = append(recs, rec)
		if rec.ChosenIdx >= 0 {
			obs = append(obs, rec.Observation)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, obs, stats
}

// TestPipelineMatchesBatchGolden is the acceptance gate for the
// streaming refactor: on a fixed seed, at worker counts 1 and 4, the
// pipeline's record stream, campaign counters, and every incremental
// analyzer must be bit-identical to the batch path (the engine's
// records collected outside the pipeline, then the slice analyzers).
// Run under -race in CI.
func TestPipelineMatchesBatchGolden(t *testing.T) {
	for _, tc := range []struct {
		oracle bool
		slots  int
	}{
		{oracle: true, slots: 40},
		{oracle: false, slots: 24},
	} {
		// Per-oracle-mode record streams, keyed by worker count: the
		// streams must also agree across worker counts.
		streams := map[int][]core.SlotRecord{}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("oracle=%v/workers=%d", tc.oracle, workers), func(t *testing.T) {
				// Batch reference.
				env := goldenEnv(t, workers)
				// Each Campaign call builds a fresh scheduler (hidden load
				// walk, score noise), so both runs start from one state.
				records, obs, batch := engineRecords(t, env.Campaign(env.Scheduler, tc.slots, tc.oracle))

				// Streaming pipeline on an identical fresh campaign,
				// fanning one pass into every incremental consumer.
				src := &pipeline.Campaign{Config: env.Campaign(env.Scheduler, tc.slots, tc.oracle)}
				collect := &pipeline.Collect{}
				counts := &pipeline.CountSkips{}
				aoe := core.NewAOEAccumulator(9)
				az := core.NewAzimuthAccumulator(9)
				la := core.NewLaunchAccumulator("New York")
				su := core.NewSunlitAccumulator(9)
				ds := core.NewDatasetBuilder()
				chosen := pipeline.ChosenOnly()
				p := &pipeline.Pipeline{
					Source: src,
					Sinks: []pipeline.Sink{
						collect,
						counts,
						pipeline.Where(chosen, pipeline.Feed(aoe)),
						pipeline.Where(chosen, pipeline.Feed(az)),
						pipeline.Where(chosen, pipeline.Feed(la)),
						pipeline.Where(chosen, pipeline.Feed(su)),
						pipeline.Where(chosen, pipeline.Feed(ds)),
					},
				}
				if err := p.Run(context.Background()); err != nil {
					t.Fatal(err)
				}

				if !reflect.DeepEqual(collect.Records, records) {
					t.Fatal("pipeline record stream diverges from the engine's")
				}
				streams[workers] = collect.Records

				stats := src.Stats
				if stats == nil {
					t.Fatal("campaign source left Stats nil after a successful run")
				}
				if stats.Attempted != batch.Attempted || stats.Correct != batch.Correct || stats.Failed != batch.Failed {
					t.Errorf("stream counters %d/%d/%d, batch %d/%d/%d",
						stats.Attempted, stats.Correct, stats.Failed,
						batch.Attempted, batch.Correct, batch.Failed)
				}
				if !reflect.DeepEqual(stats.Skips, batch.Skips) {
					t.Errorf("stream skip histogram %v, batch %v", stats.Skips, batch.Skips)
				}
				if stats.Records != len(records) || stats.Served != len(obs) {
					t.Errorf("stream saw %d records / %d served, batch %d / %d",
						stats.Records, stats.Served, len(records), len(obs))
				}
				if counts.Total != len(records) || counts.Served != len(obs) {
					t.Errorf("sink counted %d records / %d served, batch %d / %d",
						counts.Total, counts.Served, len(records), len(obs))
				}

				if len(obs) == 0 {
					t.Fatal("golden campaign produced no served observations; pick a different seed")
				}
				assertFinalizeMatches(t, "AOE", aoe.Finalize, func() (any, error) { return core.AnalyzeAOE(obs, 9) })
				assertFinalizeMatches(t, "azimuth", az.Finalize, func() (any, error) { return core.AnalyzeAzimuth(obs, 9) })
				assertFinalizeMatches(t, "launch", la.Finalize, func() (any, error) { return core.AnalyzeLaunch(obs, "New York") })
				assertFinalizeMatches(t, "sunlit", su.Finalize, func() (any, error) { return core.AnalyzeSunlit(obs, 9) })
				assertFinalizeMatches(t, "dataset", ds.Finalize, func() (any, error) { return core.BuildDataset(obs) })
			})
		}
		if len(streams[1]) > 0 && len(streams[4]) > 0 && !reflect.DeepEqual(streams[1], streams[4]) {
			t.Errorf("oracle=%v: streaming records differ between workers=1 and workers=4", tc.oracle)
		}
	}
}

// assertFinalizeMatches compares an accumulator's Finalize output with
// the batch analyzer's, bit for bit, including error parity.
func assertFinalizeMatches[T any](t *testing.T, name string, finalize func() (T, error), batch func() (any, error)) {
	t.Helper()
	got, gerr := finalize()
	want, werr := batch()
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: stream err %v, batch err %v", name, gerr, werr)
	}
	if gerr != nil {
		if gerr.Error() != werr.Error() {
			t.Errorf("%s: stream err %q, batch err %q", name, gerr, werr)
		}
		return
	}
	if !reflect.DeepEqual(any(got), want) {
		t.Errorf("%s: streamed analysis diverges from batch", name)
	}
}
