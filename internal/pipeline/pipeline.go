// Package pipeline composes the reproduction's data path as one
// source → stage → sink streaming architecture. A Source pushes
// SlotRecords in deterministic (slot, terminal) order — a simulated
// campaign, a JSONL trace replay, or a live dish capture — stages
// filter or annotate records in flight, and sinks consume them
// incrementally: the §5 analysis accumulators, the §6 dataset builder,
// JSONL trace writers, in-memory collectors.
//
// The defining property is that no step materializes the stream: the
// source, the bounded hand-off channel, and every shipped sink hold
// O(1) state in the record count, so a campaign millions of slots long
// runs, persists, and re-analyzes in constant memory. The slice-taking
// analyzers remain as thin wrappers over the same accumulators.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
)

// Record is the unit flowing through a pipeline: one slot × terminal
// outcome — the observation plus whatever ground-truth and
// identification metadata the source has.
type Record = core.SlotRecord

// Source produces an ordered record stream. Implementations push each
// record to emit and stop when emit errors or ctx is cancelled;
// records must arrive in deterministic order (for campaigns, the
// serial (slot, terminal) sequence regardless of worker count).
type Source interface {
	Stream(ctx context.Context, emit func(Record) error) error
}

// SourceFunc adapts a function to Source.
type SourceFunc func(ctx context.Context, emit func(Record) error) error

// Stream implements Source.
func (f SourceFunc) Stream(ctx context.Context, emit func(Record) error) error {
	return f(ctx, emit)
}

// Stage inspects one record in flight: pass it on (keep=true), drop it
// (keep=false), or stop the run (err != nil; ErrStop stops cleanly).
// Stages may mutate the record in place — later stages and every sink
// see the mutation.
type Stage func(rec *Record) (keep bool, err error)

// Sink consumes the staged stream. The pointed-to record is reused
// between calls, so implementations must copy the struct if they
// retain it (the slices inside belong to the record and are safe to
// keep). Flush runs once after a clean end of stream — source
// exhausted or ErrStop — and never after an error.
type Sink interface {
	Consume(rec *Record) error
	Flush() error
}

// ErrStop, returned by a stage or sink, ends the run cleanly: the
// source is cancelled, sinks are flushed, and Run returns nil. Limit
// is built on it.
var ErrStop = errors.New("pipeline: stop")

// Pipeline wires one source through an ordered stage list into one or
// more sinks. Zero value is not usable; populate Source and Sinks.
type Pipeline struct {
	Source Source
	Stages []Stage
	Sinks  []Sink
	// Buffer bounds the channel between the source and the consumer
	// loop (default 64). The bound is load-bearing: a slow sink
	// backpressures the source instead of queueing the stream, which is
	// what keeps arbitrarily long runs in O(1) memory.
	Buffer int
	// Metrics, when non-nil, counts and times the record flow. Nil (the
	// default) keeps Run on its untimed path — no clock reads per
	// record.
	Metrics *Metrics
}

// Run drives the pipeline until the source is exhausted, a stage or
// sink stops it, or ctx is cancelled. Stages and sinks run on a single
// goroutine and see records in source order; sinks within one record
// run in their listed order.
func (p *Pipeline) Run(ctx context.Context) error {
	if p.Source == nil {
		return fmt.Errorf("pipeline: nil source")
	}
	if len(p.Sinks) == 0 {
		return fmt.Errorf("pipeline: no sinks")
	}
	buffer := p.Buffer
	if buffer <= 0 {
		buffer = 64
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	m := p.Metrics
	ch := make(chan Record, buffer)
	var srcErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(ch)
		srcErr = p.Source.Stream(ctx, func(rec Record) error {
			if m != nil {
				// Try the fast path first so the clock is only read when
				// the channel actually backpressures.
				select {
				case ch <- rec:
					return nil
				default:
				}
				t0 := time.Now()
				defer func() { m.SourceBlockedNanos.Add(time.Since(t0).Nanoseconds()) }()
			}
			select {
			case ch <- rec:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
	}()

	var stopErr error
consume:
	for rec := range ch {
		m.in()
		keep := true
		var stageStart time.Time
		if m != nil && len(p.Stages) > 0 {
			stageStart = time.Now()
		}
		for _, stage := range p.Stages {
			var err error
			if keep, err = stage(&rec); err != nil {
				stopErr = err
				break consume
			}
			if !keep {
				break
			}
		}
		if m != nil && len(p.Stages) > 0 {
			m.StageSeconds.Observe(time.Since(stageStart).Seconds())
		}
		if !keep {
			m.dropped()
			continue
		}
		m.out()
		var sinkStart time.Time
		if m != nil {
			sinkStart = time.Now()
		}
		for _, s := range p.Sinks {
			if err := s.Consume(&rec); err != nil {
				stopErr = err
				break consume
			}
		}
		if m != nil {
			m.SinkSeconds.Observe(time.Since(sinkStart).Seconds())
		}
	}
	if stopErr != nil {
		// Release the source: cancel, then drain anything it managed to
		// buffer before observing the cancellation.
		cancel()
		for range ch {
		}
	}
	<-done

	if stopErr != nil && stopErr != ErrStop {
		return stopErr
	}
	if stopErr == nil && srcErr != nil {
		return srcErr
	}
	for _, s := range p.Sinks {
		if err := s.Flush(); err != nil {
			return err
		}
	}
	return nil
}
