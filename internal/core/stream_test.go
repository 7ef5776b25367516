package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// TestStreamMatchesBatch is the streaming engine's summary contract:
// the O(1)-memory CampaignStats must equal a batch tally over the
// emitted records — record and served counts, skip histogram — and
// the records themselves must match the serial stream, at several
// worker counts, in both oracle and measured mode.
func TestStreamMatchesBatch(t *testing.T) {
	setupFixture(t)
	for _, oracle := range []bool{true, false} {
		serial, err := collectCampaign(context.Background(), campaignCfg(t, 41, 1, oracle))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			run, err := collectCampaign(context.Background(), campaignCfg(t, 41, workers, oracle))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(run.Records, serial.Records) {
				t.Fatalf("oracle=%v workers=%d: streamed records differ from the serial stream", oracle, workers)
			}
			served, skips := 0, map[string]int{}
			for _, rec := range run.Records {
				if rec.ChosenIdx >= 0 {
					served++
				}
				if rec.SkipReason != "" {
					skips[rec.SkipReason]++
				}
			}
			if len(skips) == 0 {
				skips = nil
			}
			if run.CampaignStats.Records != len(run.Records) {
				t.Errorf("oracle=%v workers=%d: stats.Records = %d, want %d", oracle, workers, run.CampaignStats.Records, len(run.Records))
			}
			if run.Served != served {
				t.Errorf("oracle=%v workers=%d: stats.Served = %d, want %d", oracle, workers, run.Served, served)
			}
			if !reflect.DeepEqual(run.Skips, skips) {
				t.Errorf("oracle=%v workers=%d: skips %v != tallied %v", oracle, workers, run.Skips, skips)
			}
			if run.Attempted != serial.Attempted || run.Correct != serial.Correct || run.Failed != serial.Failed {
				t.Errorf("oracle=%v workers=%d: counters (%d,%d,%d) != serial (%d,%d,%d)",
					oracle, workers, run.Attempted, run.Correct, run.Failed,
					serial.Attempted, serial.Correct, serial.Failed)
			}
			if run.Dropped() != run.CampaignStats.Records-run.Served {
				t.Errorf("Dropped() inconsistent")
			}
		}
	}
}

// TestShardedCampaignMatchesSerial is the distributed engine's
// determinism contract: partition the fleet into contiguous terminal
// shards, run each shard as its own campaign (fresh same-seed
// scheduler, as a worker process would), merge slot by slot in shard
// order — and the merged stream must equal the unsharded run record
// for record, with the identification tallies summing across shards.
func TestShardedCampaignMatchesSerial(t *testing.T) {
	setupFixture(t)
	for _, oracle := range []bool{true, false} {
		full, err := collectCampaign(context.Background(), campaignCfg(t, 77, 1, oracle))
		if err != nil {
			t.Fatal(err)
		}
		nTerms := len(full.Records) / 24 // 24 slots per campaignCfg
		for _, shards := range []int{2, 3} {
			if shards > nTerms {
				continue
			}
			perShard := make([][]SlotRecord, shards)
			var attempted, correct, failed int
			for s := 0; s < shards; s++ {
				lo := s * nTerms / shards
				hi := (s + 1) * nTerms / shards
				cfg := campaignCfg(t, 77, 4, oracle) // Workers>1: shard must force serial
				cfg.Shard = ShardRange{Lo: lo, Hi: hi}
				stats, err := RunCampaignStream(context.Background(), cfg, func(rec SlotRecord) error {
					perShard[s] = append(perShard[s], rec)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if stats.Terminals != hi-lo {
					t.Errorf("shard %d: stats.Terminals = %d, want %d", s, stats.Terminals, hi-lo)
				}
				if len(perShard[s]) != (hi-lo)*cfg.Slots {
					t.Fatalf("shard %d emitted %d records, want %d", s, len(perShard[s]), (hi-lo)*cfg.Slots)
				}
				attempted += stats.Attempted
				correct += stats.Correct
				failed += stats.Failed
			}
			// Merge: slot by slot, shards in order — the coordinator's rule.
			var merged []SlotRecord
			for slot := 0; slot < 24; slot++ {
				for s := 0; s < shards; s++ {
					width := len(perShard[s]) / 24
					merged = append(merged, perShard[s][slot*width:(slot+1)*width]...)
				}
			}
			if len(merged) != len(full.Records) {
				t.Fatalf("oracle=%v shards=%d: merged %d records, want %d", oracle, shards, len(merged), len(full.Records))
			}
			for i := range merged {
				if !reflect.DeepEqual(merged[i], full.Records[i]) {
					t.Fatalf("oracle=%v shards=%d: merged record %d differs:\nshard: %+v\nfull:  %+v",
						oracle, shards, i, merged[i], full.Records[i])
				}
			}
			if attempted != full.Attempted || correct != full.Correct || failed != full.Failed {
				t.Errorf("oracle=%v shards=%d: summed counters (%d,%d,%d) != full (%d,%d,%d)",
					oracle, shards, attempted, correct, failed, full.Attempted, full.Correct, full.Failed)
			}
		}
	}
}

// TestEmitFromSlotResume is the journal-replay contract: a run resumed
// at slot k re-walks the campaign state from slot 0 but emits exactly
// the records the original run emitted from slot k on, with complete
// whole-campaign identification tallies.
func TestEmitFromSlotResume(t *testing.T) {
	setupFixture(t)
	for _, oracle := range []bool{true, false} {
		full, err := collectCampaign(context.Background(), campaignCfg(t, 78, 1, oracle))
		if err != nil {
			t.Fatal(err)
		}
		nTerms := len(full.Records) / 24
		for _, resume := range []int{1, 13, 24} {
			cfg := campaignCfg(t, 78, 2, oracle)
			cfg.EmitFromSlot = resume
			var got []SlotRecord
			stats, err := RunCampaignStream(context.Background(), cfg, func(rec SlotRecord) error {
				got = append(got, rec)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			want := full.Records[resume*nTerms:]
			if len(got) != len(want) {
				t.Fatalf("oracle=%v resume=%d: emitted %d records, want %d", oracle, resume, len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("oracle=%v resume=%d: record %d differs", oracle, resume, i)
				}
			}
			if stats.Records != len(want) {
				t.Errorf("oracle=%v resume=%d: stats.Records = %d, want %d", oracle, resume, stats.Records, len(want))
			}
			// Tallies cover the whole campaign, not just the emitted tail.
			if stats.Attempted != full.Attempted || stats.Correct != full.Correct || stats.Failed != full.Failed {
				t.Errorf("oracle=%v resume=%d: counters (%d,%d,%d) != full (%d,%d,%d)",
					oracle, resume, stats.Attempted, stats.Correct, stats.Failed,
					full.Attempted, full.Correct, full.Failed)
			}
		}
		// Sharded resume: the reassigned-worker path replays one shard
		// from a mid-campaign slot.
		if nTerms >= 2 {
			cfg := campaignCfg(t, 78, 1, oracle)
			cfg.Shard = ShardRange{Lo: 1, Hi: nTerms}
			cfg.EmitFromSlot = 7
			var got []SlotRecord
			if _, err := RunCampaignStream(context.Background(), cfg, func(rec SlotRecord) error {
				got = append(got, rec)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			var want []SlotRecord
			for slot := 7; slot < 24; slot++ {
				want = append(want, full.Records[slot*nTerms+1:(slot+1)*nTerms]...)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("oracle=%v: sharded resume diverged (%d vs %d records)", oracle, len(got), len(want))
			}
		}
	}
}

// TestShardValidation rejects out-of-range shards and resume slots.
func TestShardValidation(t *testing.T) {
	setupFixture(t)
	nTerms := len(campaignCfg(t, 1, 1, true).Scheduler.Terminals())
	bad := []CampaignConfig{}
	for _, s := range []ShardRange{{Lo: -1, Hi: 1}, {Lo: 2, Hi: 1}, {Lo: 0, Hi: nTerms + 1}} {
		cfg := campaignCfg(t, 1, 1, true)
		cfg.Shard = s
		bad = append(bad, cfg)
	}
	for _, e := range []int{-1, 25} {
		cfg := campaignCfg(t, 1, 1, true)
		cfg.EmitFromSlot = e
		bad = append(bad, cfg)
	}
	for i, cfg := range bad {
		if _, err := RunCampaignStream(context.Background(), cfg, func(SlotRecord) error { return nil }); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestStreamEmitErrorAborts proves an emit error stops the campaign —
// serial and parallel — and surfaces verbatim.
func TestStreamEmitErrorAborts(t *testing.T) {
	setupFixture(t)
	sentinel := fmt.Errorf("sink full")
	for _, workers := range []int{1, 4} {
		n := 0
		stats, err := RunCampaignStream(context.Background(), campaignCfg(t, 43, workers, true),
			func(SlotRecord) error {
				n++
				if n == 10 {
					return sentinel
				}
				return nil
			})
		if err != sentinel {
			t.Errorf("workers=%d: err = %v, want sentinel", workers, err)
		}
		if stats != nil {
			t.Errorf("workers=%d: aborted stream returned stats", workers)
		}
		if n != 10 {
			t.Errorf("workers=%d: emit called %d times after error, want 10", workers, n)
		}
	}
}

// TestStreamCancellation mirrors the batch cancellation contract: a
// pre-canceled context returns promptly with the context's error.
func TestStreamCancellation(t *testing.T) {
	setupFixture(t)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		stats, err := RunCampaignStream(ctx, campaignCfg(t, 44, workers, true), func(SlotRecord) error { return nil })
		if err != context.Canceled {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if stats != nil {
			t.Errorf("workers=%d: canceled stream returned stats", workers)
		}
	}
}
