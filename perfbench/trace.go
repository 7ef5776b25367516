package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are offsets from the
// tracer's start; parent is the index of the enclosing span, -1 at the
// root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

// tracer records spans and counters in memory for one traced replay.
// The replay runs on one goroutine; the only other goroutine that
// opens spans is the RPC server's handler, which runs while the
// client's call span is open and blocked, so the open-span stack stays
// properly nested. The mutex orders the two goroutines' accesses.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	wall   time.Duration
	spans  []span
	cur    int32
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), cur: -1, counts: map[string]float64{}}
}

// begin opens a span under the innermost open one and returns its id.
// Every tracer method is a no-op on a nil tracer, so set-up code is
// shared by the traced and untraced runs.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: t.cur})
	t.cur = id
	t.mu.Unlock()
	return id
}

// end closes span id and makes its parent the innermost open span.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].End = int64(time.Since(t.t0))
	t.cur = t.spans[id].Parent
	t.mu.Unlock()
}

// rename relabels a span once its outcome is known (an observe that
// triggered a refit becomes a predict.refit span).
func (t *tracer) rename(id int32, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// count adds v to a named counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// finish stamps the traced wall time; call once the replay is done.
func (t *tracer) finish() { t.wall = time.Since(t.t0) }

// selfTimes returns each span name's self time in seconds: its spans'
// durations minus the parts their child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for i, s := range t.spans {
		self[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return self
}

// coverage is the share of the traced wall time spent inside layer
// spans; the rest is replay glue between calls.
func (t *tracer) coverage() float64 {
	var covered int64
	for _, s := range t.spans {
		if s.Parent < 0 {
			covered += s.End - s.Start
		}
	}
	return float64(covered) / float64(t.wall.Nanoseconds())
}

// write dumps the spans as JSON lines, one span per line, after a
// header line with the wall time and counters.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"wall_ns": t.wall.Nanoseconds(), "counts": t.counts, "spans": len(t.spans)}); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("flush %s: %w", path, err)
	}
	return f.Close()
}
