package scenario

import (
	"fmt"

	"repro/internal/astro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// BuildOptions carries the host-side instrumentation knobs that are
// not part of the run description. The zero value is a plain build.
type BuildOptions struct {
	// Telemetry wires the environment into a registry (nil disables).
	Telemetry *telemetry.Registry
	// TraceDecisions > 0 records the last N campaign decisions.
	TraceDecisions int
}

// Starlink is the spec the repro -scale/-seed/-slots flags describe:
// the scale's Starlink Walker-delta shells over the paper's four
// sites, default scheduler, an oracle campaign of the given length.
func Starlink(scale experiments.Scale, seed int64, slots int) *Spec {
	return &Spec{
		Version:       SpecVersion,
		Name:          "starlink-" + string(scale),
		Seed:          seed,
		Constellation: ConstellationSpec{Preset: "starlink-" + string(scale)},
		Terminals:     TerminalsSpec{Preset: "study"},
		Campaign:      CampaignSpec{Slots: slots, Oracle: true},
	}
}

// EnvConfig lowers the spec into an experiments.Config. Host-side
// instrumentation comes from opt.
func (s *Spec) EnvConfig(opt BuildOptions) (experiments.Config, error) {
	shells, err := s.Shells()
	if err != nil {
		return experiments.Config{}, err
	}
	vps, err := s.VantagePoints()
	if err != nil {
		return experiments.Config{}, err
	}
	epoch, err := s.epoch()
	if err != nil {
		return experiments.Config{}, err
	}
	gsoProtection := s.Scheduler.GSOProtectionDeg
	if s.Scheduler.DisableGSO {
		gsoProtection = -1
	}
	var gs []astro.Geodetic
	for _, g := range s.Scheduler.GroundStations {
		gs = append(gs, astro.Geodetic{LatDeg: g.LatDeg, LonDeg: g.LonDeg, AltKm: g.AltKm})
	}
	return experiments.Config{
		Seed:                  s.Seed,
		Shells:                shells,
		NamePrefix:            s.Constellation.NamePrefix,
		Epoch:                 epoch,
		JitterDeg:             s.Constellation.JitterDeg,
		UseKeplerJ2:           s.Constellation.UseKeplerJ2,
		Weights:               s.Scheduler.Weights.weights(),
		MinElevationDeg:       s.Scheduler.MinElevationDeg,
		GSOProtectionDeg:      gsoProtection,
		GroundStations:        gs,
		DisableGroundStations: s.Scheduler.DisableGroundStations,
		GSMinElevationDeg:     s.Scheduler.GSMinElevationDeg,
		DisableBattery:        s.Scheduler.DisableBattery,
		VantagePoints:         vps,
		Workers:               s.Campaign.Workers,
		SnapshotWorkers:       s.Campaign.SnapshotWorkers,
		Telemetry:             opt.Telemetry,
		TraceDecisions:        opt.TraceDecisions,
	}, nil
}

// Build validates the spec and lowers it into a ready environment.
func (s *Spec) Build(opt BuildOptions) (*experiments.Env, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg, err := s.EnvConfig(opt)
	if err != nil {
		return nil, err
	}
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return env, nil
}

// IdentSlots bounds the §4 identification-validation run: the spec's
// ident_slots, else min(slots, 125) — the study's 500-identification
// budget over four terminals.
func (s *Spec) IdentSlots() int {
	if n := s.Campaign.IdentSlots; n > 0 {
		return n
	}
	return min(s.Campaign.Slots, 125)
}

// CampaignConfig lowers the spec's campaign on env, the environment
// Build made from it, through env.Campaign: a fresh scheduler, so a
// spec that mirrors the default environment produces a bit-identical
// record stream. Every campaign run from a spec, local or sharded,
// starts here.
func (s *Spec) CampaignConfig(env *experiments.Env) core.CampaignConfig {
	cfg := env.Campaign(env.Scheduler, s.Campaign.Slots, s.Campaign.Oracle)
	cfg.ResetEvery = s.Campaign.ResetEvery
	return cfg
}
