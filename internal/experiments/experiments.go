// Package experiments wires the full reproduction together: one
// environment of immutable inputs (constellation, terminals,
// identifier, snapshot cache and the ground-truth scheduler's config)
// and one entry point per paper figure or table. Each entry point
// builds the schedulers it drives, so its result does not depend on
// which others ran first. cmd/repro renders these results as text;
// bench_test.go times them; EXPERIMENTS.md records paper-vs-measured
// numbers from the same code paths.
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/astro"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/ml"
	"repro/internal/netsim"
	"repro/internal/obstruction"
	"repro/internal/pipeline"
	"repro/internal/scheduler"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Scale selects constellation density. The analyses' shapes are stable
// across scales; Full matches the 2023 Starlink constellation count
// and the paper's ~40 satellites in view.
type Scale string

// Scales.
const (
	// Small: ~700 satellites, a few in view. Fast smoke tests.
	Small Scale = "small"
	// Medium: ~1800 satellites, ~15 in view. Default: paper-shaped
	// results in seconds.
	Medium Scale = "medium"
	// Full: ~4400 satellites, ~40 in view, matches the paper's density.
	Full Scale = "full"
)

func shellsFor(s Scale) ([]constellation.Shell, error) {
	switch s {
	case Small:
		return []constellation.Shell{
			{Name: "s1", AltitudeKm: 550, InclinationDeg: 53, Planes: 30, SatsPerPlane: 18, PhasingF: 13},
			{Name: "s3", AltitudeKm: 570, InclinationDeg: 70, Planes: 12, SatsPerPlane: 12, PhasingF: 5},
		}, nil
	case Medium, "":
		return []constellation.Shell{
			{Name: "s1", AltitudeKm: 550, InclinationDeg: 53, Planes: 48, SatsPerPlane: 20, PhasingF: 17},
			{Name: "s2", AltitudeKm: 540, InclinationDeg: 53.2, Planes: 40, SatsPerPlane: 18, PhasingF: 13},
			{Name: "s3", AltitudeKm: 570, InclinationDeg: 70, Planes: 14, SatsPerPlane: 14, PhasingF: 5},
		}, nil
	case Full:
		return constellation.StarlinkShells(), nil
	default:
		return nil, fmt.Errorf("experiments: unknown scale %q (want small|medium|full)", s)
	}
}

// ShellsFor exposes the scale→shell-design mapping to spec-driven
// callers (internal/scenario lowers constellation presets through it).
func ShellsFor(s Scale) ([]constellation.Shell, error) { return shellsFor(s) }

// Config assembles an environment.
type Config struct {
	Scale Scale
	Seed  int64
	// Shells overrides Scale with an explicit constellation design
	// (the scenario engine's non-Starlink geometries). Scale is
	// ignored when set.
	Shells []constellation.Shell
	// NamePrefix names synthetic satellites "<prefix>-<n>"; empty
	// keeps the STARLINK catalog naming.
	NamePrefix string
	// Epoch overrides the constellation TLE epoch (zero keeps the
	// 2023-03-01 study epoch).
	Epoch time.Time
	// JitterDeg overrides the constellation's orbital-element jitter
	// sigma (0 keeps the 0.15° default).
	JitterDeg float64
	// UseKeplerJ2 swaps the ablation propagator into the constellation.
	UseKeplerJ2 bool
	// Weights overrides the scheduler's preferences (ablations); zero
	// value uses the defaults.
	Weights scheduler.Weights
	// MinElevationDeg overrides the terminal hardware mask for both
	// the scheduler and the identifier's available sets (0 keeps the
	// study's 25°).
	MinElevationDeg float64
	// GSOProtectionDeg < 0 disables the exclusion zone (ablation).
	GSOProtectionDeg float64
	// GroundStations overrides the gateway sites for the bent-pipe
	// constraint; nil keeps the study PoPs' co-located gateways.
	GroundStations []astro.Geodetic
	// DisableGroundStations removes the bent-pipe constraint entirely
	// (lowered to scheduler.Config's explicit empty slice).
	DisableGroundStations bool
	// GSMinElevationDeg is the gateway visibility mask (0 keeps 25°).
	GSMinElevationDeg float64
	// DisableBattery removes the satellite energy model (ablation).
	DisableBattery bool
	// VantagePoints overrides the study's four sites (e.g. the §8
	// southern-hemisphere generalization, or scenario placements).
	VantagePoints []geo.VantagePoint
	// Workers bounds the campaign worker pool (see
	// core.CampaignConfig.Workers). 0 uses all CPUs; 1 forces the
	// serial engine.
	Workers int
	// SnapshotWorkers is the fan-out for the per-slot constellation
	// propagation sweep (see core.CampaignConfig.SnapshotWorkers). 0
	// selects GOMAXPROCS; 1 forces the serial sweep. Byte-identical
	// output at every value.
	SnapshotWorkers int
	// Telemetry, when non-nil, wires the environment's scheduler,
	// campaigns, pipelines, and model training into the registry. Nil
	// (the default) keeps every hot path on its uninstrumented branch.
	Telemetry *telemetry.Registry
	// TraceDecisions, when > 0, records the last N campaign decisions
	// into a telemetry.DecisionTrace ring (Env.Trace).
	TraceDecisions int
}

// Env is a ready-to-run reproduction environment. It holds only
// immutable inputs: every campaign and every trace builds a fresh
// scheduler from Scheduler, so each result is a function of the
// environment alone, never of what ran on it before.
type Env struct {
	Cons      *constellation.Constellation
	Ident     *core.Identifier
	Terminals []scheduler.Terminal
	// Scheduler is the ground-truth controller's config (constellation,
	// terminals, preferences, seed, snapshot cache). NewScheduler and
	// Campaign build from it; a comparison arm edits a copy (Arm).
	Scheduler scheduler.Config
	Seed      int64
	// Workers is passed to every campaign this environment runs.
	Workers int
	// Ctx, when non-nil, cancels this environment's campaign loops
	// (cmd/repro wires Ctrl-C here). Nil means context.Background().
	Ctx context.Context
	// Telemetry is the registry every layer reports into (nil when
	// disabled).
	Telemetry *telemetry.Registry
	// Metrics is the campaign instrumentation bundle shared by every
	// campaign this environment runs (nil when telemetry is disabled).
	Metrics *core.CampaignMetrics
	// Snaps is the snapshot cache shared by every scheduler and
	// campaign this environment runs, so each slot propagates (and
	// indexes) the constellation once globally.
	Snaps *constellation.SnapshotCache
}

// Trace returns the decision-trace ring, nil when tracing is off.
func (e *Env) Trace() *telemetry.DecisionTrace {
	if e.Metrics == nil {
		return nil
	}
	return e.Metrics.Trace
}

// ctx returns the environment's cancellation context.
func (e *Env) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

// NewEnv builds the constellation, terminals, scheduler config, and
// identifier.
func NewEnv(cfg Config) (*Env, error) {
	shells := cfg.Shells
	if len(shells) == 0 {
		var err error
		if shells, err = shellsFor(cfg.Scale); err != nil {
			return nil, err
		}
	}
	cons, err := constellation.New(constellation.Config{
		Shells:      shells,
		Seed:        cfg.Seed,
		UseKeplerJ2: cfg.UseKeplerJ2,
		NamePrefix:  cfg.NamePrefix,
		Epoch:       cfg.Epoch,
		JitterDeg:   cfg.JitterDeg,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: build constellation: %w", err)
	}
	vps := cfg.VantagePoints
	if len(vps) == 0 {
		vps = geo.StudyVantagePoints()
	}
	terms := terminalsAt(vps)
	gs := cfg.GroundStations
	if cfg.DisableGroundStations {
		gs = []astro.Geodetic{} // non-nil empty = constraint off
	}
	snaps := constellation.NewSnapshotCache(0, cfg.Telemetry)
	snaps.SetSnapshotWorkers(cfg.SnapshotWorkers)
	ident, err := core.NewIdentifier(cons)
	if err != nil {
		return nil, err
	}
	if cfg.MinElevationDeg != 0 {
		ident.MinElevationDeg = cfg.MinElevationDeg
	}
	e := &Env{Cons: cons, Ident: ident, Terminals: terms, Seed: cfg.Seed,
		Workers: cfg.Workers, Telemetry: cfg.Telemetry, Snaps: snaps,
		Scheduler: scheduler.Config{
			Constellation:     cons,
			Terminals:         terms,
			Weights:           cfg.Weights,
			MinElevationDeg:   cfg.MinElevationDeg,
			GSOProtectionDeg:  cfg.GSOProtectionDeg,
			GroundStations:    gs,
			GSMinElevationDeg: cfg.GSMinElevationDeg,
			DisableBattery:    cfg.DisableBattery,
			Seed:              cfg.Seed,
			Telemetry:         cfg.Telemetry,
			Snapshots:         snaps,
		}}
	// Building one scheduler here rejects a bad config up front, so the
	// fresh ones each campaign and trace builds from it cannot fail.
	if _, err := scheduler.NewGlobal(e.Scheduler); err != nil {
		return nil, fmt.Errorf("experiments: build scheduler: %w", err)
	}
	e.Metrics = core.NewCampaignMetrics(cfg.Telemetry)
	if cfg.TraceDecisions > 0 {
		if e.Metrics == nil {
			// Tracing without a registry: an otherwise-empty bundle still
			// carries the ring (all metric handles nil-safe no-ops).
			e.Metrics = &core.CampaignMetrics{}
		}
		e.Metrics.Trace = telemetry.NewDecisionTrace(cfg.TraceDecisions)
	}
	return e, nil
}

// terminalsAt schedules one standard-priority terminal per site.
func terminalsAt(vps []geo.VantagePoint) []scheduler.Terminal {
	terms := make([]scheduler.Terminal, 0, len(vps))
	for _, vp := range vps {
		terms = append(terms, scheduler.Terminal{VantagePoint: vp, Priority: 1})
	}
	return terms
}

// NewScheduler builds a fresh ground-truth scheduler from the
// environment's config. Every trace, and every caller that allocates
// slot by slot, starts from one, so each starts from the same state.
func (e *Env) NewScheduler() *scheduler.Global {
	return newScheduler(e.Scheduler)
}

// newScheduler builds a scheduler from a config NewEnv has accepted, or
// an Arm of one, so an error here is a bug.
func newScheduler(sc scheduler.Config) *scheduler.Global {
	g, err := scheduler.NewGlobal(sc)
	if err != nil {
		panic(fmt.Sprintf("experiments: scheduler config rejected after NewEnv accepted it: %v", err))
	}
	return g
}

// Arm returns a copy of the environment's scheduler config with edit
// applied: a comparison arm that differs from the environment only in
// what edit sets, which must leave a config the scheduler accepts.
// Campaign runs it on this environment's constellation, identifier,
// snapshot cache, worker pool and telemetry.
func (e *Env) Arm(edit func(*scheduler.Config)) scheduler.Config {
	sc := e.Scheduler
	edit(&sc)
	return sc
}

// Campaign lowers one campaign to the engine's config: a fresh
// scheduler built from sc (the environment's Scheduler or an Arm of
// it) over this environment's identifier, snapshot cache, metrics and
// worker pool, starting at Start. Every campaign an environment runs,
// local, scenario or sharded, is lowered here.
func (e *Env) Campaign(sc scheduler.Config, slots int, oracle bool) core.CampaignConfig {
	return core.CampaignConfig{
		Scheduler:  newScheduler(sc),
		Identifier: e.Ident,
		Start:      e.Start(),
		Slots:      slots,
		Oracle:     oracle,
		Workers:    e.Workers,
		Metrics:    e.Metrics,
		Snapshots:  e.Snaps,
	}
}

// Start returns the campaign start time (one hour past the TLE epoch,
// aligned to the allocation grid).
func (e *Env) Start() time.Time {
	return scheduler.EpochStart(e.Cons.Epoch.Add(time.Hour))
}

// terminal finds a terminal by name.
func (e *Env) terminal(name string) (scheduler.Terminal, error) {
	for _, t := range e.Terminals {
		if t.Name == name {
			return t, nil
		}
	}
	return scheduler.Terminal{}, fmt.Errorf("experiments: unknown terminal %q", name)
}

// trace probes one terminal's path every 20 ms for dur from Start, on
// a fresh scheduler.
func (e *Env) trace(term scheduler.Terminal, dur time.Duration) ([]netsim.Sample, error) {
	path, err := netsim.NewPath(netsim.Config{
		Constellation: e.Cons,
		Scheduler:     e.NewScheduler(),
		Terminal:      term,
		Seed:          e.Seed,
	})
	if err != nil {
		return nil, err
	}
	return path.Trace(e.Start(), dur, 20*time.Millisecond)
}

// Fig2Result is the Figure 2 artifact: a two-minute high-frequency RTT
// trace from one terminal with per-slot statistics.
type Fig2Result struct {
	Terminal string
	Samples  []netsim.Sample
	// BoundarySeconds are the seconds-past-the-minute at which slot
	// boundaries fall (the paper: 12, 27, 42, 57).
	BoundarySeconds []int
	// WindowMedians holds the median RTT of each 15-second window —
	// the regime levels visible in the figure.
	WindowMedians []float64
}

// Fig2 generates the Figure 2 trace (default: EU terminal = Madrid,
// 2 minutes at 1 probe / 20 ms).
func (e *Env) Fig2(terminalName string, dur time.Duration) (*Fig2Result, error) {
	if terminalName == "" {
		terminalName = "Madrid"
	}
	if dur == 0 {
		dur = 2 * time.Minute
	}
	term, err := e.terminal(terminalName)
	if err != nil {
		return nil, err
	}
	samples, err := e.trace(term, dur)
	if err != nil {
		return nil, err
	}
	res := &Fig2Result{Terminal: terminalName, Samples: samples}
	seen := map[int]bool{}
	for _, w := range netsim.SplitBySlot(samples) {
		res.WindowMedians = append(res.WindowMedians, stats.Median(netsim.RTTs(w)))
		sec := scheduler.EpochStart(w[0].T).Second()
		if !seen[sec] {
			seen[sec] = true
			res.BoundarySeconds = append(res.BoundarySeconds, sec)
		}
	}
	return res, nil
}

// WindowStatsResult is the §3 statistical test: Mann-Whitney U between
// consecutive 15-second windows per terminal.
type WindowStatsResult struct {
	Terminal        string
	Windows         int
	Comparisons     int
	SignificantFrac float64 // fraction with p < 0.05
	MedianP         float64
}

// WindowStats runs the §3 test over a trace of the given duration for
// every terminal.
func (e *Env) WindowStats(dur time.Duration) ([]WindowStatsResult, error) {
	if dur == 0 {
		dur = 5 * time.Minute
	}
	var out []WindowStatsResult
	for _, term := range e.Terminals {
		samples, err := e.trace(term, dur)
		if err != nil {
			return nil, err
		}
		windows := netsim.SplitBySlot(samples)
		res := WindowStatsResult{Terminal: term.Name, Windows: len(windows)}
		var ps []float64
		for i := 1; i < len(windows); i++ {
			a, b := netsim.RTTs(windows[i-1]), netsim.RTTs(windows[i])
			if len(a) < 8 || len(b) < 8 {
				continue
			}
			mw, err := stats.MannWhitneyU(a, b)
			if err != nil {
				continue
			}
			res.Comparisons++
			ps = append(ps, mw.P)
			if mw.P < 0.05 {
				res.SignificantFrac++
			}
		}
		if res.Comparisons > 0 {
			res.SignificantFrac /= float64(res.Comparisons)
			res.MedianP = stats.Median(ps)
		}
		out = append(out, res)
	}
	return out, nil
}

// Fig3Result is the obstruction-map walkthrough: two consecutive
// snapshots, their XOR, a two-day filled map, and the parameters
// recovered from it.
type Fig3Result struct {
	Prev, Cur, Diff *obstruction.Map
	Filled          *obstruction.Map
	Recovered       obstruction.Params
}

// Fig3 reproduces the §4 obstruction-map methodology for one terminal.
func (e *Env) Fig3(terminalName string) (*Fig3Result, error) {
	if terminalName == "" {
		terminalName = "Iowa"
	}
	term, err := e.terminal(terminalName)
	if err != nil {
		return nil, err
	}
	sched := e.NewScheduler()
	start := e.Start()
	// Slot t-1 and t: paint the true serving satellite's track.
	m := obstruction.New()
	allocs := sched.Allocate(start)
	var a0 scheduler.Allocation
	for _, a := range allocs {
		if a.Terminal == term.Name {
			a0 = a
		}
	}
	if a0.SatID == 0 {
		return nil, fmt.Errorf("experiments: no allocation for %s", term.Name)
	}
	if err := e.Ident.PaintServingTrack(m, a0.SatID, term.VantagePoint, start); err != nil {
		return nil, err
	}
	prev := m.Clone()

	next := start.Add(scheduler.Period)
	allocs = sched.Allocate(next)
	var a1 scheduler.Allocation
	for _, a := range allocs {
		if a.Terminal == term.Name {
			a1 = a
		}
	}
	if a1.SatID == 0 {
		return nil, fmt.Errorf("experiments: no allocation for %s in second slot", term.Name)
	}
	if err := e.Ident.PaintServingTrack(m, a1.SatID, term.VantagePoint, next); err != nil {
		return nil, err
	}
	cur := m.Clone()

	// "Two days without reset": fill the plot disk by sweeping the sky.
	filled := obstruction.New()
	for el := 25.0; el <= 90; el += 0.4 {
		for az := 0.0; az < 360; az += 0.4 {
			filled.PaintPoint(obstruction.PolarPoint{ElevationDeg: el, AzimuthDeg: az})
		}
	}
	params, err := obstruction.RecoverParams(filled)
	if err != nil {
		return nil, err
	}
	return &Fig3Result{
		Prev: prev, Cur: cur, Diff: obstruction.XOR(prev, cur),
		Filled: filled, Recovered: params,
	}, nil
}

// IdentResult is the §4 validation: identification accuracy against
// ground truth, the reproduction's version of the 500-sample pilot
// study.
type IdentResult struct {
	Attempted, Correct, Failed int
	Accuracy                   float64
	MedianMargin               float64
}

// IdentValidation runs a measured (non-oracle) campaign through the
// streaming pipeline and scores the identifications — records are
// folded into the margin series as they arrive and never materialize.
// naive switches to the nearest-endpoint ablation.
func (e *Env) IdentValidation(slots int, naive bool) (*IdentResult, error) {
	if slots == 0 {
		slots = 125 // 125 slots x 4 terminals = 500 identifications
	}
	cfg := e.Campaign(e.Scheduler, slots, false)
	ident := *e.Ident
	ident.UseNaiveMatcher = naive
	cfg.Identifier = &ident
	src := &pipeline.Campaign{Config: cfg}
	var margins []float64
	p := &pipeline.Pipeline{
		Source:  src,
		Metrics: pipeline.NewMetrics(e.Telemetry),
		Sinks: []pipeline.Sink{pipeline.SinkFunc(func(rec *pipeline.Record) error {
			if rec.SkipReason == "" && rec.Margin > 0 {
				margins = append(margins, rec.Margin)
			}
			return nil
		})},
	}
	if err := p.Run(e.ctx()); err != nil {
		return nil, err
	}
	out := &IdentResult{
		Attempted: src.Stats.Attempted,
		Correct:   src.Stats.Correct,
		Failed:    src.Stats.Failed,
		Accuracy:  src.Stats.Accuracy(),
	}
	if len(margins) > 0 {
		out.MedianMargin = stats.Median(margins)
	}
	return out, nil
}

// StreamCampaign drives the campaign cfg describes through the
// pipeline, feeding every sink its chosen-only observation stream, and
// returns the campaign summary. cfg normally comes from Campaign, or a
// scenario's lowering of it.
func (e *Env) StreamCampaign(cfg core.CampaignConfig, sinks ...pipeline.Sink) (*core.CampaignStats, error) {
	src := &pipeline.Campaign{Config: cfg}
	p := &pipeline.Pipeline{
		Source:  src,
		Stages:  []pipeline.Stage{pipeline.ChosenOnly()},
		Sinks:   sinks,
		Metrics: pipeline.NewMetrics(e.Telemetry),
	}
	if err := p.Run(e.ctx()); err != nil {
		return nil, err
	}
	return src.Stats, nil
}

// Observations runs an oracle campaign and returns the §5/§6 inputs.
func (e *Env) Observations(slots int) ([]core.Observation, error) {
	return e.observations(e.Scheduler, slots)
}

// observations is Observations under the scheduler config sc.
func (e *Env) observations(sc scheduler.Config, slots int) ([]core.Observation, error) {
	collect := &pipeline.CollectObservations{}
	if _, err := e.StreamCampaign(e.Campaign(sc, slots, true), collect); err != nil {
		return nil, err
	}
	return collect.Obs, nil
}

// StreamResult is one single-pass run of every §5 analysis and the §6
// dataset build over a streaming campaign: no record or observation
// slice ever materializes, so the campaign length is bounded by time,
// not memory.
type StreamResult struct {
	Stats   *core.CampaignStats
	AOE     *core.AOEAnalysis
	Azimuth *core.AzimuthAnalysis
	Launch  *core.LaunchAnalysis
	Sunlit  *core.SunlitAnalysis
	Dataset *ml.Dataset
}

// StreamAnalyses runs one oracle campaign and computes every §5
// analysis plus the §6 dataset in a single streaming pass. The outputs
// are bit-identical to running Observations and the batch analyzers
// (the pipeline golden tests hold this), at O(1) memory in the slot
// count.
func (e *Env) StreamAnalyses(slots int) (*StreamResult, error) {
	aoe := core.NewAOEAccumulator(27)
	az := core.NewAzimuthAccumulator(27)
	la := core.NewLaunchAccumulator("New York")
	su := core.NewSunlitAccumulator(27)
	ds := core.NewDatasetBuilder()
	st, err := e.StreamCampaign(e.Campaign(e.Scheduler, slots, true),
		pipeline.Feed(aoe), pipeline.Feed(az), pipeline.Feed(la), pipeline.Feed(su), pipeline.Feed(ds))
	if err != nil {
		return nil, err
	}
	out := &StreamResult{Stats: st}
	if out.AOE, err = aoe.Finalize(); err != nil {
		return nil, err
	}
	if out.Azimuth, err = az.Finalize(); err != nil {
		return nil, err
	}
	if out.Launch, err = la.Finalize(); err != nil {
		return nil, err
	}
	if out.Sunlit, err = su.Finalize(); err != nil {
		return nil, err
	}
	if out.Dataset, err = ds.Finalize(); err != nil {
		return nil, err
	}
	return out, nil
}

// Fig4 computes the angle-of-elevation analysis.
func (e *Env) Fig4(obs []core.Observation) (*core.AOEAnalysis, error) {
	return core.AnalyzeAOE(obs, 27)
}

// Fig5 computes the azimuth analysis.
func (e *Env) Fig5(obs []core.Observation) (*core.AzimuthAnalysis, error) {
	return core.AnalyzeAzimuth(obs, 27)
}

// Fig6 computes the launch-date analysis, excluding the obstructed
// New York site from the mean as the paper does.
func (e *Env) Fig6(obs []core.Observation) (*core.LaunchAnalysis, error) {
	return core.AnalyzeLaunch(obs, "New York")
}

// Fig7 computes the sunlit analysis.
func (e *Env) Fig7(obs []core.Observation) (*core.SunlitAnalysis, error) {
	return core.AnalyzeSunlit(obs, 27)
}

// Fig8 trains and evaluates the §6 model on the environment's worker
// pool (Env.Workers; results are bit-identical at any pool size).
func (e *Env) Fig8(obs []core.Observation, cfg core.ModelConfig) (*core.ModelResult, error) {
	d, err := core.BuildDataset(obs)
	if err != nil {
		return nil, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = e.Seed + 1
	}
	if cfg.Workers == 0 {
		cfg.Workers = e.Workers
	}
	if cfg.Metrics == nil {
		cfg.Metrics = ml.NewMetrics(e.Telemetry)
	}
	return core.TrainModelCtx(e.ctx(), d, cfg)
}

// QuickModelConfig is a reduced grid for tests and benches.
func QuickModelConfig(seed int64) core.ModelConfig {
	return core.ModelConfig{
		Folds: 3,
		Grid:  []ml.ForestConfig{{NumTrees: 30, Tree: ml.TreeConfig{MaxDepth: 10}}},
		Seed:  seed,
	}
}
