package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/constellation"
	"repro/internal/dtw"
	"repro/internal/obstruction"
	"repro/internal/scheduler"
)

// EmitFunc receives one campaign record. Implementations must not
// retain rec's slices past the call; copy what outlives it. Returning
// an error aborts the campaign and surfaces the error from
// RunCampaignStream.
type EmitFunc func(rec SlotRecord) error

// CampaignStats summarizes a streamed campaign without retaining any
// records, so arbitrarily long campaigns report in O(1) memory.
type CampaignStats struct {
	Slots, Terminals int
	// Records is the number of records emitted (slots × terminals on a
	// complete run).
	Records int
	// Served counts records with a valid chosen satellite — the rows
	// the §5/§6 analyses consume.
	Served int
	// Identification validation counters (non-oracle runs).
	Attempted, Correct, Failed int
	// Skips histograms every non-empty SkipReason.
	Skips map[string]int
	// PropagationSkips counts satellites dropped from snapshots by
	// propagation failures, summed over slots (a persistently failing
	// satellite counts once per slot). Zero on healthy runs; non-zero
	// means available sets were silently smaller than the constellation.
	PropagationSkips int
}

// Accuracy returns the identification accuracy over attempted slots.
func (s *CampaignStats) Accuracy() float64 {
	if s.Attempted == 0 {
		return 0
	}
	return float64(s.Correct) / float64(s.Attempted)
}

// Dropped counts emitted records without a usable chosen satellite.
func (s *CampaignStats) Dropped() int { return s.Records - s.Served }

// observe folds one emitted record into the stats. Called from exactly
// one goroutine (the serial loop or the parallel emitter), in emission
// order.
func (s *CampaignStats) observe(rec *SlotRecord) {
	s.Records++
	if rec.ChosenIdx >= 0 {
		s.Served++
	}
	if rec.SkipReason != "" {
		if s.Skips == nil {
			s.Skips = map[string]int{}
		}
		s.Skips[rec.SkipReason]++
	}
}

// RunCampaignStream executes the campaign, pushing each SlotRecord to
// emit in deterministic (slot, terminal) order without retaining
// records: callers that need them all collect them in emit. With
// cfg.Workers > 1 the concurrent engine runs behind a bounded reorder
// window, so steady-state memory is O(workers × terminals), not
// O(slots): campaigns far larger than memory stream through.
//
// On ctx cancellation or an emit error the partial stream stops,
// already-emitted records stand, and the error is returned with nil
// stats.
func RunCampaignStream(ctx context.Context, cfg CampaignConfig, emit EmitFunc) (*CampaignStats, error) {
	terms, workers, err := prepareCampaign(&cfg)
	if err != nil {
		return nil, err
	}
	var t0 time.Time
	if cfg.Metrics != nil {
		t0 = time.Now()
	}
	var stats *CampaignStats
	if workers <= 1 {
		stats, err = streamSerial(ctx, cfg, terms, emit)
	} else {
		stats, err = streamParallel(ctx, cfg, terms, workers, emit)
	}
	if err == nil && cfg.Metrics != nil {
		cfg.Metrics.campaignDone(cfg.Slots, time.Since(t0))
	}
	return stats, err
}

// prepareCampaign validates the config, applies defaults, and resolves
// the worker count for both engines.
func prepareCampaign(cfg *CampaignConfig) ([]scheduler.Terminal, int, error) {
	if err := cfg.validate(); err != nil {
		return nil, 0, err
	}
	if cfg.ResetEvery == 0 {
		cfg.ResetEvery = 40
	}
	if cfg.Snapshots == nil {
		cfg.Snapshots = constellation.NewSnapshotCache(0, nil)
	}
	if cfg.SnapshotWorkers != 0 {
		cfg.Snapshots.SetSnapshotWorkers(cfg.SnapshotWorkers)
	}
	terms := cfg.Scheduler.Terminals()
	for _, t := range terms {
		if err := validateVantagePoint(t.VantagePoint); err != nil {
			return nil, 0, err
		}
	}
	lo, hi := cfg.Shard.bounds(len(terms))
	if lo < 0 || hi > len(terms) || lo >= hi {
		return nil, 0, fmt.Errorf("core: shard [%d,%d) outside fleet of %d terminals", lo, hi, len(terms))
	}
	workers := cfg.resolveWorkers(len(terms))
	// Sharded and resumed runs take the serial engine: the parallel
	// reorder ring assumes every terminal produces a record per slot,
	// and replay determinism is easiest to audit on one goroutine.
	if lo != 0 || hi != len(terms) || cfg.EmitFromSlot > 0 {
		workers = 1
	}
	return terms, workers, nil
}

// streamSerial is the single-threaded engine: one loop over slots ×
// terminals, checking ctx once per slot and emitting records as they
// are produced. Live memory is one snapshot + one dish map per
// terminal regardless of campaign length.
func streamSerial(ctx context.Context, cfg CampaignConfig, terms []scheduler.Terminal, emit EmitFunc) (*CampaignStats, error) {
	lo, hi := cfg.Shard.bounds(len(terms))
	// Dish maps exist only for the identification path; oracle-mode
	// fleets (100k terminals) must not pay ~15 KB per terminal for maps
	// nothing reads. A shard owns maps only for its own range — the
	// scheduler's allocations for other terminals never touch a dish.
	maps := make(map[string]*obstruction.Map, hi-lo)
	if !cfg.Oracle {
		for _, t := range terms[lo:hi] {
			maps[t.Name] = obstruction.New()
		}
	}
	matcher := &dtw.Matcher{}
	scratch := &slotScratch{}

	stats := &CampaignStats{Slots: cfg.Slots, Terminals: hi - lo}
	start := scheduler.EpochStart(cfg.Start)
	for slot := 0; slot < cfg.Slots; slot++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		slotStart := start.Add(time.Duration(slot) * scheduler.Period)
		shared := cfg.Snapshots.Acquire(cfg.Identifier.cons, slotStart)
		stats.PropagationSkips += shared.Skipped()
		allocs := cfg.Scheduler.Allocate(slotStart)
		cfg.Metrics.slotProduced()

		if !cfg.Oracle && cfg.ResetEvery > 0 && slot%cfg.ResetEvery == 0 && slot > 0 {
			for _, m := range maps {
				m.Reset()
			}
		}

		for ti := lo; ti < hi; ti++ {
			t := terms[ti]
			rec := runSlotTerminal(&cfg, t, maps[t.Name], matcher, scratch, slotStart, shared,
				allocFor(allocs, ti, t.Name),
				&stats.Attempted, &stats.Correct, &stats.Failed)
			if slot < cfg.EmitFromSlot {
				continue // replayed slot: state advanced, emission suppressed
			}
			stats.observe(&rec)
			cfg.Metrics.observeRecord(&rec)
			if err := emit(rec); err != nil {
				shared.Release()
				return nil, err
			}
		}
		shared.Release()
		cfg.Metrics.slotEmitted()
	}
	cfg.Metrics.flushMatcher(matcher.Stats)
	return stats, nil
}

// streamParallel is the concurrent streaming engine. Division of
// labor:
//
//   - The producer runs the scheduler serially in slot order — the
//     controller is stateful (hidden load walk, score-noise RNG), so
//     its call sequence must match the serial engine exactly.
//   - Terminals are sharded across workers by index (terminal i goes
//     to worker i % workers), so each terminal's obstruction map is
//     owned by exactly one goroutine and evolves in slot order.
//   - Records land in a reorder ring of `window` slots; a single
//     emitter drains completed slots in order, so downstream consumers
//     see exactly the serial (slot, terminal) sequence.
//   - The producer takes a token per slot and the emitter returns it
//     after the slot is fully emitted, bounding records, snapshots,
//     and scheduler outputs in flight to the window — the whole
//     campaign streams in O(window) memory however many slots it has.
func streamParallel(ctx context.Context, cfg CampaignConfig, terms []scheduler.Terminal, workers int, emit EmitFunc) (*CampaignStats, error) {
	nTerms := len(terms)
	// Each worker channel buffers 4 slots; size the reorder window so
	// the buffers plus in-flight slots never stall a worker that is
	// ahead of the emitter. At fleet scale the ring is window × nTerms
	// records (~1 KB each), so cap the total in-flight records — a
	// 100k-terminal fleet must not buffer gigabytes.
	window := workers*4 + 4
	const maxRingRecords = 1 << 18
	if nTerms > 0 && window*nTerms > maxRingRecords {
		window = maxRingRecords / nTerms
		if window < 2 {
			window = 2
		}
	}
	if window > cfg.Slots {
		window = cfg.Slots
	}

	ring := make([][]SlotRecord, window)
	for i := range ring {
		ring[i] = make([]SlotRecord, nTerms)
	}
	// left[i] counts terminals still unprocessed for the slot currently
	// occupying ring cell i; the worker that zeroes it announces the
	// slot to the emitter.
	left := make([]atomic.Int32, window)

	// Lazily acquired, refcounted shared snapshots, one ring cell per
	// in-flight slot. The producer resets the refcount before
	// dispatching a slot into a cell (the token guarantees the cell is
	// free); the last worker release returns the cache reference. The
	// scheduler's Allocate call for the same slot hits the same cache
	// entry, so propagation runs once per slot globally.
	snaps := make([]struct {
		mu     sync.Mutex
		shared *constellation.SharedSnapshot
	}, window)
	snapLeft := make([]atomic.Int32, window)
	var propSkips atomic.Int64

	start := scheduler.EpochStart(cfg.Start)
	slotTime := func(slot int) time.Time {
		return start.Add(time.Duration(slot) * scheduler.Period)
	}
	getSnap := func(slot int) *constellation.SharedSnapshot {
		c := &snaps[slot%window]
		c.mu.Lock()
		if c.shared == nil {
			c.shared = cfg.Snapshots.Acquire(cfg.Identifier.cons, slotTime(slot))
			propSkips.Add(int64(c.shared.Skipped()))
		}
		s := c.shared
		c.mu.Unlock()
		return s
	}
	releaseSnap := func(slot int) {
		i := slot % window
		if snapLeft[i].Add(-1) == 0 {
			c := &snaps[i]
			c.mu.Lock()
			c.shared.Release()
			c.shared = nil
			c.mu.Unlock()
		}
	}

	// run cancels on upstream ctx, producer exhaustion is separate; an
	// emit error must also stop the producer and workers.
	run, cancel := context.WithCancel(ctx)
	defer cancel()

	type counters struct{ attempted, correct, failed int }
	chans := make([]chan slotItem, workers)
	for w := range chans {
		chans[w] = make(chan slotItem, 4)
	}
	doneSlots := make(chan int, window)
	tokens := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}

	tallies := make([]counters, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			maps := make(map[string]*obstruction.Map)
			if !cfg.Oracle {
				for ti := w; ti < nTerms; ti += workers {
					maps[terms[ti].Name] = obstruction.New()
				}
			}
			matcher := &dtw.Matcher{}
			scratch := &slotScratch{}
			var c counters
			for item := range chans[w] {
				if run.Err() != nil {
					continue // drain; the stream is abandoned
				}
				if !cfg.Oracle && cfg.ResetEvery > 0 && item.slot%cfg.ResetEvery == 0 && item.slot > 0 {
					for _, m := range maps {
						m.Reset()
					}
				}
				for ti := w; ti < nTerms; ti += workers {
					t := terms[ti]
					rec := runSlotTerminal(&cfg, t, maps[t.Name], matcher, scratch, item.slotStart,
						getSnap(item.slot), allocFor(item.allocs, ti, t.Name),
						&c.attempted, &c.correct, &c.failed)
					releaseSnap(item.slot)
					ring[item.slot%window][ti] = rec
					if left[item.slot%window].Add(-1) == 0 {
						doneSlots <- item.slot
					}
				}
			}
			tallies[w] = c
			cfg.Metrics.flushMatcher(matcher.Stats)
		}(w)
	}

	// The emitter drains completed slots in slot order and pushes each
	// record downstream, then returns the slot's token to the producer.
	stats := &CampaignStats{Slots: cfg.Slots, Terminals: nTerms}
	var emitErr error
	var emitWG sync.WaitGroup
	emitWG.Add(1)
	go func() {
		defer emitWG.Done()
		completed := make(map[int]bool, window)
		next := 0
		for next < cfg.Slots {
			select {
			case s := <-doneSlots:
				completed[s] = true
			case <-run.Done():
				return
			}
			for completed[next] {
				delete(completed, next)
				cell := ring[next%window]
				for ti := range cell {
					stats.observe(&cell[ti])
					cfg.Metrics.observeRecord(&cell[ti])
					if err := emit(cell[ti]); err != nil {
						emitErr = err
						cancel()
						return
					}
				}
				cfg.Metrics.slotEmitted()
				next++
				select {
				case tokens <- struct{}{}:
				case <-run.Done():
					return
				}
			}
		}
	}()

	var cancelErr error
produce:
	for slot := 0; slot < cfg.Slots; slot++ {
		select {
		case <-tokens:
		case <-run.Done():
			cancelErr = run.Err()
			break produce
		}
		i := slot % window
		left[i].Store(int32(nTerms))
		snapLeft[i].Store(int32(nTerms))
		t := slotTime(slot)
		item := slotItem{slot: slot, slotStart: t, allocs: cfg.Scheduler.Allocate(t)}
		cfg.Metrics.slotProduced()
		for _, ch := range chans {
			select {
			case ch <- item:
			case <-run.Done():
				cancelErr = run.Err()
				break produce
			}
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	// An abandoned run leaves dispatched slots unprocessed; return their
	// stranded snapshot references so a shared cache does not stay
	// pinned. Safe here: workers and producer are done, and the emitter
	// never touches snaps.
	for i := range snaps {
		if snaps[i].shared != nil {
			snaps[i].shared.Release()
			snaps[i].shared = nil
		}
	}
	// On an abandoned run the emitter may be blocked waiting for slots
	// that will never complete; cancel to release it. On a clean run
	// every dispatched slot completes, so the emitter drains the tail
	// on its own — cancelling early here would truncate the stream.
	if cancelErr != nil || ctx.Err() != nil {
		cancel()
	}
	emitWG.Wait()

	if emitErr != nil {
		return nil, emitErr
	}
	if cancelErr != nil {
		return nil, cancelErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, c := range tallies {
		stats.Attempted += c.attempted
		stats.Correct += c.correct
		stats.Failed += c.failed
	}
	stats.PropagationSkips = int(propSkips.Load())
	return stats, nil
}
