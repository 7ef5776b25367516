// Command perfbench is the repository benchmark. One run executes one
// workload for a fixed time, checks its outputs and prints every
// metric by name and unit; the last line of standard output is the
// JSON result:
//
//	perfbench --workload study|fleet|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the run repeats the workload (set-up, then the timed
// phase) on the production engines with GOMAXPROCS = nproc until S
// seconds have passed, and reports end-to-end medians over the
// repetitions. With --trace 1 it alternates an untraced one-worker run
// with a traced serial replay of the same workload, which calls each
// layer's public function in turn with a span around every call, and
// reports per-layer self times and counters.
//
// Every workload is a closed loop: the caller waits for each result
// before issuing the next request.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// sizes fixes how much work one repetition does.
type sizes struct {
	studySlots     int
	fleetTerminals int
	fleetSlots     int
	serveSlots     int
}

// benchSizes are the benchmark's inputs; tinySizes serve the
// self-check.
var (
	benchSizes = sizes{studySlots: 400, fleetTerminals: 10000, fleetSlots: 8, serveSlots: 600}
	tinySizes  = sizes{studySlots: 60, fleetTerminals: 200, fleetSlots: 2, serveSlots: 200}
)

// rep is one repetition of a workload: set-up, then the timed phase.
type rep struct {
	setup, timed time.Duration
	// records counts slot×terminal records through the timed phase (on
	// serve, records folded into the service).
	records int
	// attempted and failed count the operations that can fail: records
	// on study, propagations on fleet, RPCs on serve.
	attempted, failed int
	digest            string
	heapMB            float64
	values            map[string]float64
	rtts              []time.Duration
	// keep holds the repetition's results until the live heap is read.
	keep any
}

type workload struct {
	name string
	run  func(seed int64, sz sizes, workers int, tr *tracer) (*rep, error)
	// check returns the output checks a repetition failed.
	check func(r *rep) []string
}

var workloads = []workload{
	{"study", runStudy, checkStudy},
	{"fleet", runFleet, func(*rep) []string { return nil }},
	{"serve", runServe, checkServe},
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	sizes    sizes
}

func main() {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "study, fleet or serve")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measurement time")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for results and spans")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if trace != 0 && trace != 1 || o.seconds < 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 0")
		os.Exit(2)
	}
	o.trace = trace == 1
	o.sizes = benchSizes
	ok, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run produces: the metrics BENCHMARK.json names,
// the workload's own outputs (info), per-repetition raw timings, the
// operation counts, the output checks that failed and, for a traced
// run, the last replay's spans.
type report struct {
	metrics, info     []metric
	raw               []map[string]float64
	attempted, failed int
	bad               []string
	spans             *tracer
}

// run executes one benchmark run and writes its report to stdout. It
// returns whether every output check held; an error means no result
// could be produced.
func run(o options, stdout io.Writer) (bool, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return false, fmt.Errorf("unknown workload %q (want study, fleet or serve)", o.workload)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	host := hostFacts(o.seed, nproc)

	var rp *report
	var err error
	tag := fmt.Sprintf("%s-seed%d-trace0", o.workload, o.seed)
	if o.trace {
		tag = fmt.Sprintf("%s-seed%d-trace1", o.workload, o.seed)
		rp, err = tracedRun(wl, o)
	} else {
		rp, err = timedRun(wl, o, nproc)
	}
	if err != nil {
		return false, err
	}
	res := result{Correct: len(rp.bad) == 0, Attempted: rp.attempted, Failed: rp.failed,
		Metrics: metricMap(rp.metrics)}

	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return false, err
	}
	if rp.spans != nil {
		if err := rp.spans.write(filepath.Join(o.out, tag+"-spans.jsonl")); err != nil {
			return false, fmt.Errorf("write spans: %w", err)
		}
	}
	manifest := map[string]any{"host": host, "workload": o.workload, "trace": o.trace, "seconds": o.seconds,
		"result": res, "info": metricMap(rp.info), "failed_checks": rp.bad, "repetitions": rp.raw}
	if err := writeJSON(filepath.Join(o.out, tag+".json"), manifest); err != nil {
		return false, err
	}

	hb, err := json.Marshal(host)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "host %s\n", hb)
	for _, m := range append(append([]metric(nil), rp.info...), rp.metrics...) {
		fmt.Fprintf(stdout, "metric %-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, b := range rp.bad {
		fmt.Fprintf(stdout, "check failed: %s\n", b)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res.Correct, nil
}

// timedRun repeats the workload on the production engines until the
// measurement time is used, at least three times so set-up has a
// median and repetitions can be compared, and reports the median of
// each end-to-end metric over the repetitions.
func timedRun(wl *workload, o options, nproc int) (*report, error) {
	rp := &report{}
	var reps []*rep
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(reps) < 3 || time.Now().Before(deadline) {
		r, err := wl.run(o.seed, o.sizes, nproc, nil)
		if err != nil {
			return nil, err
		}
		r.heapMB = liveHeapMB(r)
		rp.raw = append(rp.raw, map[string]float64{"setup_s": r.setup.Seconds(), "timed_s": r.timed.Seconds(),
			"records": float64(r.records), "live_heap_mb": r.heapMB})
		reps = append(reps, r)
		rp.attempted += r.attempted
		rp.failed += r.failed
		for _, b := range wl.check(r) {
			rp.bad = append(rp.bad, fmt.Sprintf("repetition %d: %s", len(reps), b))
		}
		if r.digest != reps[0].digest {
			rp.bad = append(rp.bad, fmt.Sprintf("repetition %d: digest %s differs from the first repetition's %s", len(reps), r.digest, reps[0].digest))
		}
		for k, v := range r.values {
			if v != reps[0].values[k] {
				rp.bad = append(rp.bad, fmt.Sprintf("repetition %d: %s %v differs from the first repetition's %v", len(reps), k, v, reps[0].values[k]))
			}
		}
	}

	pick := func(f func(r *rep) float64) float64 {
		vs := make([]float64, len(reps))
		for i, r := range reps {
			vs[i] = f(r)
		}
		return median(vs)
	}
	rp.metrics = []metric{
		{"setup_s", "s", pick(func(r *rep) float64 { return r.setup.Seconds() })},
		{"wall_s", "s", pick(func(r *rep) float64 { return (r.setup + r.timed).Seconds() })},
		{"records_per_s", "1/s", pick(func(r *rep) float64 { return float64(r.records) / r.timed.Seconds() })},
		{"live_heap_mb", "MB", pick(func(r *rep) float64 { return r.heapMB })},
	}

	rp.info = append(rp.info, metric{"repetitions", "count", float64(len(reps))})
	keys := make([]string, 0, len(reps[0].values))
	for k := range reps[0].values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		unit := "ratio"
		if k == "served" {
			unit = "count"
		}
		rp.info = append(rp.info, metric{k, unit, reps[0].values[k]})
	}
	var rtts []float64
	for _, r := range reps {
		for _, d := range r.rtts {
			rtts = append(rtts, float64(d.Nanoseconds())/1e3)
		}
	}
	if len(rtts) > 0 {
		rp.info = append(rp.info,
			metric{"serve_p50_us", "us", quantile(rtts, 0.50)},
			metric{"serve_p99_us", "us", quantile(rtts, 0.99)},
			metric{"serve_samples", "count", float64(len(rtts))})
	}
	return rp, nil
}

// tracedRun alternates an untraced one-worker run with a traced serial
// replay until the measurement time is used, and reports the median of
// each per-layer metric over the traced replays.
func tracedRun(wl *workload, o options) (*report, error) {
	rp := &report{}
	samples := map[string][]float64{}
	var order []metric
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for pair := 1; pair == 1 || time.Now().Before(deadline); pair++ {
		t0 := time.Now()
		base, err := wl.run(o.seed, o.sizes, 1, nil)
		if err != nil {
			return nil, err
		}
		baseWall := time.Since(t0)

		tr := newTracer()
		r, err := wl.run(o.seed, o.sizes, 1, tr)
		tr.finish()
		if err != nil {
			return nil, err
		}
		rp.attempted += r.attempted
		rp.failed += r.failed
		for _, b := range wl.check(r) {
			rp.bad = append(rp.bad, fmt.Sprintf("traced replay %d: %s", pair, b))
		}
		if r.digest != base.digest {
			rp.bad = append(rp.bad, fmt.Sprintf("traced replay %d: digest %s differs from the untraced run's %s", pair, r.digest, base.digest))
		}
		if c := tr.coverage(); c < 0.9 {
			rp.bad = append(rp.bad, fmt.Sprintf("traced replay %d: layer spans cover %.3f of the wall time, below 0.9", pair, c))
		}
		order = layerMetrics(tr, tr.wall-baseWall)
		for _, m := range order {
			samples[m.name] = append(samples[m.name], m.value)
		}
		rp.spans = tr
	}
	for _, m := range order {
		rp.metrics = append(rp.metrics, metric{m.name, m.unit, median(samples[m.name])})
	}
	return rp, nil
}

// layerMetrics turns one traced replay into the per-layer metrics.
func layerMetrics(tr *tracer, overhead time.Duration) []metric {
	self := tr.selfTimes()
	c := tr.counts
	ratio := func(n, d string) float64 {
		if c[d] == 0 {
			return 0
		}
		return c[n] / c[d]
	}
	return []metric{
		{"constellation.acquire_s", "s", self["constellation.acquire"]},
		{"constellation.acquires", "count", c["constellation.acquires"]},
		{"constellation.index_s", "s", self["constellation.index"]},
		{"constellation.skipped", "count", c["constellation.skipped"]},
		{"scheduler.setup_s", "s", self["scheduler.setup"]},
		{"scheduler.allocate_s", "s", self["scheduler.allocate"]},
		{"scheduler.allocations", "count", c["scheduler.allocations"]},
		{"scheduler.served_frac", "ratio", ratio("scheduler.served", "scheduler.allocations")},
		{"core.visible_s", "s", self["core.visible"]},
		{"core.visible_queries", "count", c["core.visible_queries"]},
		{"core.visible_per_query", "sats/query", ratio("core.visible_sats", "core.visible_queries")},
		{"obstruction.clone_s", "s", self["obstruction.clone"]},
		{"obstruction.paint_s", "s", self["obstruction.paint"]},
		{"obstruction.xor_s", "s", self["obstruction.xor"]},
		{"obstruction.track_px", "px", c["obstruction.track_px"]},
		{"identify.candidates_s", "s", self["identify.candidates"]},
		{"identify.candidates", "count", c["identify.candidates"]},
		{"identify.dropped", "count", c["identify.dropped"]},
		{"identify.failed_frac", "ratio", ratio("identify.failed", "identify.attempts")},
		{"dtw.match_s", "s", self["dtw.match"]},
		{"dtw.candidates", "count", c["dtw.candidates"]},
		{"dtw.pruned_frac", "ratio", ratio("dtw.pruned", "dtw.candidates")},
		{"dtw.abandoned_frac", "ratio", ratio("dtw.passes_abandoned", "dtw.passes_run")},
		{"pipeline.sink_s", "s", self["pipeline.sink"]},
		{"pipeline.records", "count", c["pipeline.records"]},
		{"ml.fit_s", "s", self["ml.fit"] + self["predict.refit"]},
		{"ml.rows", "count", c["ml.rows"]},
		{"ml.fits", "count", c["ml.fits"]},
		{"predict.topk_s", "s", self["predict.topk"]},
		{"predict.observe_s", "s", self["predict.observe"]},
		{"predict.refits", "count", c["predict.refits"]},
		{"predict.refit_s", "s", self["predict.refit"]},
		{"dishrpc.overhead_s", "s", self["dishrpc.call"]},
		{"dishrpc.calls", "count", c["dishrpc.calls"]},
		{"trace.wall_s", "s", tr.wall.Seconds()},
		{"trace.coverage", "ratio", tr.coverage()},
		{"trace.overhead_s", "s", overhead.Seconds()},
	}
}

// liveHeapMB is the live heap after a forced collection, with the
// repetition's results still reachable.
func liveHeapMB(r *rep) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(r.keep)
	r.keep = nil
	return float64(ms.HeapAlloc) / (1 << 20)
}

// gitRev is the source revision, stamped at build time by run.py.
var gitRev = "unknown"

// hostFacts records where and how the run was made.
func hostFacts(seed int64, nproc int) map[string]any {
	return map[string]any{
		"nproc":      nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"git_rev":    gitRev,
		"seed":       seed,
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func metricMap(ms []metric) map[string]metricValue {
	out := map[string]metricValue{}
	for _, m := range ms {
		out[m.name] = metricValue{m.value, m.unit}
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
