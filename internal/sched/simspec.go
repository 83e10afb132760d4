package sched

// Portable specs for the two memoised profiling simulations, mirroring
// explore.SimSpec: each carries every input its run depends on in
// exported JSON-safe fields, and each run is a pure function of the
// spec. The in-process memo path (the exported Run* functions) and the
// sweep fabric's granule executors share one simulation code path and
// differ only in the generator: handlers generate the stream live, the
// Run* functions replay the identical stream from the trace arena.

import (
	"context"
	"encoding/json"
	"fmt"

	"lpm/internal/fabric"
	"lpm/internal/parallel"
	"lpm/internal/sim/chip"
	"lpm/internal/trace"
)

// ProfileKind is the fabric granule kind for standalone workload
// profiling runs (Fig. 6/7 and the NUCA-SA scheduler's table).
const ProfileKind = "sched.profile"

// AloneKind is the fabric granule kind for standalone-IPC reference
// runs (the Hsp denominator).
const AloneKind = "sched.alone"

// ProfileSpec describes one profiling run: one workload alone at one
// L1 size under normalised options.
type ProfileSpec struct {
	Profile trace.Profile
	L1Size  uint64
	Opt     ProfileOptions
}

// MemoKey derives the content key; the part order must stay exactly
// what the pre-fabric profileOne passed to parallel.KeyOf so existing
// checkpoints keep resuming warm.
func (s ProfileSpec) MemoKey() string {
	return parallel.KeyOf("sched.profileOne", s.Profile, s.L1Size, s.Opt)
}

// RunProfileSpec measures (APC1, APC2, IPC) for the spec's workload.
func RunProfileSpec(ctx context.Context, s ProfileSpec) ([3]float64, error) {
	gen := trace.Open(s.Profile)
	defer gen.Release()
	return runProfile(ctx, s, gen)
}

// runProfile is RunProfileSpec on gen, a fresh generator for s.Profile.
func runProfile(ctx context.Context, s ProfileSpec, gen trace.Generator) ([3]float64, error) {
	opt := s.Opt.normalise()
	cfg := chip.NUCASingle(gen, s.L1Size)
	ch := chip.New(cfg)
	ch.SetContext(ctx)
	runTarget := opt.Warmup + opt.Instructions
	if opt.WarmupFast {
		ch.SetTier(chip.TierFunctional)
		ch.RunFunctional(opt.Warmup)
		ch.SetTier(chip.TierDetailed)
		runTarget = opt.Instructions
	} else {
		ch.RunUntilRetired(opt.Warmup, opt.MaxCycles)
	}
	ch.ResetCounters()
	ch.Run(runTarget, opt.MaxCycles)
	if err := ch.Err(); err != nil {
		return [3]float64{}, fmt.Errorf("profile %s @%d: %w", s.Profile.Name, s.L1Size, err)
	}
	r := ch.Snapshot()
	return [3]float64{r.Cores[0].L1.APC(), r.L2.APC(), r.Cores[0].CPU.IPC()}, nil
}

// AloneSpec describes one standalone-IPC reference run: one workload on
// a reference core with the largest NUCA group's L1, under the shared
// runs' fixed-cycle warmup/window protocol.
type AloneSpec struct {
	Profile      trace.Profile
	RefL1        uint64
	WindowCycles uint64
	WarmupCycles uint64
	WarmupFast   bool
}

// MemoKey derives the content key with the pre-fabric part order.
func (s AloneSpec) MemoKey() string {
	return parallel.KeyOf("sched.alone", s.Profile, s.RefL1,
		s.WindowCycles, s.WarmupCycles, s.WarmupFast)
}

// RunAloneSpec measures the spec's standalone IPC.
func RunAloneSpec(ctx context.Context, s AloneSpec) (float64, error) {
	gen := trace.Open(s.Profile)
	defer gen.Release()
	return runAlone(ctx, s, gen)
}

// runAlone is RunAloneSpec on gen, a fresh generator for s.Profile.
func runAlone(ctx context.Context, s AloneSpec, gen trace.Generator) (float64, error) {
	ch := chip.New(chip.NUCASingle(gen, s.RefL1))
	ch.SetContext(ctx)
	warmChip(ch, EvalOptions{
		WindowCycles: s.WindowCycles,
		WarmupCycles: s.WarmupCycles,
		WarmupFast:   s.WarmupFast,
	})
	ch.ResetCounters()
	ch.RunCycles(s.WindowCycles)
	if err := ch.Err(); err != nil {
		return 0, fmt.Errorf("alone-IPC %s: %w", s.Profile.Name, err)
	}
	return ch.Snapshot().Cores[0].CPU.IPC(), nil
}

func init() {
	fabric.RegisterKind(ProfileKind, func(ctx context.Context, raw json.RawMessage) (json.RawMessage, error) {
		var s ProfileSpec
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("sched: decode %s spec: %w", ProfileKind, err)
		}
		r, err := runProfile(ctx, s, trace.NewSynthetic(s.Profile))
		if err != nil {
			return nil, err
		}
		return json.Marshal(r)
	})
	fabric.RegisterKind(AloneKind, func(ctx context.Context, raw json.RawMessage) (json.RawMessage, error) {
		var s AloneSpec
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("sched: decode %s spec: %w", AloneKind, err)
		}
		r, err := runAlone(ctx, s, trace.NewSynthetic(s.Profile))
		if err != nil {
			return nil, err
		}
		return json.Marshal(r)
	})
}
