package explore

// SimSpec makes one design-point simulation portable: every input the
// simulation depends on, flattened into exported JSON-safe fields, so a
// granule can cross the sweep fabric's wire and produce the same
// Measurement on any worker that it would have produced in-process.

import (
	"context"
	"encoding/json"
	"fmt"

	"lpm/internal/core"
	"lpm/internal/fabric"
	"lpm/internal/obs/timeseries"
	"lpm/internal/parallel"
	"lpm/internal/sim/chip"
	"lpm/internal/trace"
)

// SimKind is the fabric granule kind for design-point simulations.
const SimKind = "explore.sim"

// SimSpec is the full input fingerprint of one design-point simulation.
// RunSimSpec is a pure function of it (WatchdogCycles excepted: a
// watchdog budget can only turn a livelock into an error, never change
// a successful measurement, so it rides along without joining the key).
type SimSpec struct {
	Point          Point
	Profile        trace.Profile
	Instructions   uint64
	Warmup         uint64
	MaxCycles      uint64
	Observe        bool
	Timeline       bool
	TimelineWindow uint64
	WarmupFast     bool
	WatchdogCycles uint64
}

// MemoKey derives the content key shared by the in-process memo, the
// checkpoint files, and the fabric's result cache. The part order is
// load-bearing: it must stay exactly what the pre-fabric code passed to
// parallel.KeyOf, or existing checkpoints stop resuming warm.
func (s SimSpec) MemoKey() string {
	return parallel.KeyOf("explore.simulate", s.Point, s.Profile,
		s.Instructions, s.Warmup, s.MaxCycles,
		s.Observe, s.Timeline, s.TimelineWindow, s.WarmupFast)
}

// RunSimSpec runs the cycle-level simulation the spec describes, behind
// the explore.sim memo. Its generator replays the profile's stream from
// the process trace arena, recording it on first use; the stream is
// identical to a live one, so the result is a deterministic function of
// the spec and concurrent calls are safe.
func RunSimSpec(ctx context.Context, s SimSpec) (core.Measurement, error) {
	gen := trace.Open(s.Profile)
	defer gen.Release()
	return runSim(ctx, s, gen)
}

// runSim runs the spec's simulation on gen, a fresh generator for
// s.Profile, and a fresh chip.
func runSim(ctx context.Context, s SimSpec, gen trace.Generator) (core.Measurement, error) {
	budget := s.WatchdogCycles
	if budget == 0 {
		budget = DefaultWatchdogCycles
	}
	cfg := ChipConfig(s.Point, gen)
	cpiExe := chip.MeasureCPIexe(cfg.Cores[0].CPU, gen, uint64(cfg.Cores[0].L1.HitLatency), s.Instructions)
	ch := chip.New(cfg)
	ch.SetContext(ctx)
	ch.SetWatchdog(budget)
	if s.Observe {
		ch.EnableObs()
	}
	runTarget := s.Warmup + s.Instructions
	if s.WarmupFast {
		ch.SetTier(chip.TierFunctional)
		ch.RunFunctional(s.Warmup)
		ch.SetTier(chip.TierDetailed)
		runTarget = s.Instructions // functionally-warmed cores retired nothing
	} else {
		ch.RunUntilRetired(s.Warmup, s.MaxCycles)
	}
	if err := ch.Err(); err != nil {
		return core.Measurement{}, fmt.Errorf("simulate %s: %w", s.Profile.Name, err)
	}
	ch.ResetCounters()
	if s.Timeline {
		// Attached after warm-up and reset so the windows tile exactly
		// the measured interval.
		ch.EnableTimeseries(timeseries.Config{Width: s.TimelineWindow, CPIexe: cpiExe})
	}
	ch.Run(runTarget, s.MaxCycles)
	if err := ch.Err(); err != nil {
		return core.Measurement{}, fmt.Errorf("simulate %s: %w", s.Profile.Name, err)
	}
	return ch.Measure(0, cpiExe), nil
}

// The granule executor: workers decode the spec and run the same
// simulation code the in-process path runs — one simulation code path
// whether a run is serial, parallel, or sharded. Only the generator
// differs: handlers generate the stream live, with no process state a
// granule's result could depend on, while RunSimSpec replays it from the
// trace arena. The two streams are identical.
func init() {
	fabric.RegisterKind(SimKind, func(ctx context.Context, raw json.RawMessage) (json.RawMessage, error) {
		var s SimSpec
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("explore: decode %s spec: %w", SimKind, err)
		}
		m, err := runSim(ctx, s, trace.NewSynthetic(s.Profile))
		if err != nil {
			return nil, err
		}
		return json.Marshal(m)
	})
}
