package main

// The replay re-runs every distinct simulation of a pass on chips the
// benchmark builds itself through the chip layer's public API, following
// the recipe of the library function that ran it (sched.RunProfileSpec,
// sched.RunAloneSpec, sched.Evaluate, explore.RunSimSpec). It serves two
// ends: its outputs must equal the library's bit for bit, which checks
// results at any seed, and its chips are the ones whose counters give
// the simulated work counts (instructions retired in measured windows
// and the sim.* per-layer counts).

import (
	"context"
	"fmt"
	"sync"
	"time"

	"lpm/internal/explore"
	"lpm/internal/sched"
	"lpm/internal/sim/chip"
	"lpm/internal/stats"
	"lpm/internal/trace"
)

// simJob re-runs one simulation; want is the library's output for it as
// canonical JSON.
type simJob struct {
	key  string
	want string
	run  func() (got string, c simCount)
}

// simCount sums a set of simulations' measured-window counters.
type simCount struct {
	Sims         int
	Cycles       uint64 // measured-window chip cycles
	AllCycles    uint64 // warm-up plus window
	Instructions uint64
	L1Accesses   uint64
	L1Misses     uint64
	L2Accesses   uint64
	L2Misses     uint64
	MSHRWaits    uint64
	DRAMReads    uint64
	RowHits      uint64
	RowAll       uint64
	LatencySum   uint64
	BusBusy      uint64
	BusSlots     uint64 // window cycles times channels
	HostSeconds  float64
}

func (c *simCount) add(o simCount) {
	c.Sims += o.Sims
	c.Cycles += o.Cycles
	c.AllCycles += o.AllCycles
	c.Instructions += o.Instructions
	c.L1Accesses += o.L1Accesses
	c.L1Misses += o.L1Misses
	c.L2Accesses += o.L2Accesses
	c.L2Misses += o.L2Misses
	c.MSHRWaits += o.MSHRWaits
	c.DRAMReads += o.DRAMReads
	c.RowHits += o.RowHits
	c.RowAll += o.RowAll
	c.LatencySum += o.LatencySum
	c.BusBusy += o.BusBusy
	c.BusSlots += o.BusSlots
	c.HostSeconds += o.HostSeconds
}

// countChip reads one finished chip's measured-window counters.
func countChip(ch *chip.Chip, windowStart uint64, began time.Time) simCount {
	r := ch.Snapshot()
	window := ch.Now() - windowStart
	c := simCount{
		Sims:        1,
		Cycles:      window,
		AllCycles:   ch.Now(),
		L2Accesses:  r.L2Stats.Accesses,
		L2Misses:    r.L2Stats.Misses,
		MSHRWaits:   r.L2Stats.MSHRWaits,
		DRAMReads:   r.Mem.Reads,
		RowHits:     r.Mem.RowHits,
		RowAll:      r.Mem.RowHits + r.Mem.RowMisses + r.Mem.RowConflicts,
		LatencySum:  r.Mem.LatencySum,
		BusBusy:     r.Mem.BusBusyCycles,
		BusSlots:    window * uint64(ch.Config().Mem.Channels),
		HostSeconds: time.Since(began).Seconds(),
	}
	for _, cr := range r.Cores {
		c.Instructions += cr.CPU.Instructions
		c.L1Accesses += cr.L1Stats.Accesses
		c.L1Misses += cr.L1Stats.Misses
		c.MSHRWaits += cr.L1Stats.MSHRWaits
	}
	return c
}

// errVal renders a replay failure where an output was expected.
func errVal(err error) string { return "error: " + err.Error() }

// profileJob replays sched.RunProfileSpec.
func profileJob(key, want string, s sched.ProfileSpec) simJob {
	return simJob{key: key, want: want, run: func() (string, simCount) {
		began := time.Now()
		o := s.Opt
		ch := chip.New(chip.NUCASingle(trace.NewSynthetic(s.Profile), s.L1Size))
		ch.RunUntilRetired(o.Warmup, o.MaxCycles)
		ch.ResetCounters()
		start := ch.Now()
		ch.Run(o.Warmup+o.Instructions, o.MaxCycles)
		if err := ch.Err(); err != nil {
			return errVal(err), simCount{}
		}
		c := countChip(ch, start, began)
		r := ch.Snapshot()
		return canon([3]float64{r.Cores[0].L1.APC(), r.L2.APC(), r.Cores[0].CPU.IPC()}), c
	}}
}

// aloneJob replays sched.RunAloneSpec on the reference L1 size.
func aloneJob(key, want, name string, refL1 uint64) simJob {
	return simJob{key: key, want: want, run: func() (string, simCount) {
		began := time.Now()
		ch := chip.New(chip.NUCASingle(trace.NewSynthetic(trace.MustProfile(name)), refL1))
		ch.RunCycles(nucaEvalOpt.WarmupCycles)
		ch.ResetCounters()
		start := ch.Now()
		ch.RunCycles(nucaEvalOpt.WindowCycles)
		if err := ch.Err(); err != nil {
			return errVal(err), simCount{}
		}
		return canon(ch.Snapshot().Cores[0].CPU.IPC()), countChip(ch, start, began)
	}}
}

// evaluateJob replays sched.Evaluate for one policy on the Fig. 5 chip.
func evaluateJob(key, want string, s sched.Scheduler, names []string, sizes []uint64, alone []float64) simJob {
	return simJob{key: key, want: want, run: func() (string, simCount) {
		began := time.Now()
		asg, err := s.Assign(names, sizes)
		if err != nil {
			return errVal(err), simCount{}
		}
		gens := make([]trace.Generator, len(asg))
		for core, w := range asg {
			if w >= 0 {
				gens[core] = trace.NewSynthetic(trace.MustProfile(names[w]))
			}
		}
		ch := chip.New(chip.NUCA16(gens))
		ch.RunCycles(nucaEvalOpt.WarmupCycles)
		ch.ResetCounters()
		start := ch.Now()
		ch.RunCycles(nucaEvalOpt.WindowCycles)
		if err := ch.Err(); err != nil {
			return errVal(err), simCount{}
		}
		r := ch.Snapshot()
		shared := make([]float64, len(names))
		for core, w := range asg {
			if w >= 0 {
				shared[w] = r.Cores[core].CPU.IPC()
			}
		}
		ev := &sched.Evaluation{
			Scheduler:  s.Name(),
			Assignment: asg,
			IPCShared:  shared,
			IPCAlone:   alone,
			Hsp:        stats.Hsp(shared, alone),
			Cycles:     ch.Now() - start,
		}
		return canon(ev), countChip(ch, start, began)
	}}
}

// pointJob replays explore.RunSimSpec for one design point at the quick
// budgets the dse-walk targets use.
func pointJob(stream int, p explore.Point, prof trace.Profile, want string) simJob {
	instr, warm := quick.Window, quick.Warmup
	maxCy := (warm + instr) * 400
	return simJob{key: fmt.Sprintf("point/%d/%s", stream, p), want: want, run: func() (string, simCount) {
		began := time.Now()
		gen := trace.NewSynthetic(prof)
		cfg := explore.ChipConfig(p, gen)
		cpiExe := chip.MeasureCPIexe(cfg.Cores[0].CPU, gen, uint64(cfg.Cores[0].L1.HitLatency), instr)
		ch := chip.New(cfg)
		ch.RunUntilRetired(warm, maxCy)
		ch.ResetCounters()
		start := ch.Now()
		ch.Run(warm+instr, maxCy)
		if err := ch.Err(); err != nil {
			return errVal(err), simCount{}
		}
		return canon(ch.Measure(0, cpiExe)), countChip(ch, start, began)
	}}
}

// replay runs jobs on up to workers goroutines of its own (not the
// library's pool, which is under test) and returns the summed counts and
// the keys whose outputs differ from the library's.
func replay(ctx context.Context, jobs []simJob, workers int) (simCount, []string, error) {
	var (
		mu    sync.Mutex
		total simCount
		bad   []string
		next  int
		wg    sync.WaitGroup
	)
	for w := 0; w < max(1, workers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(jobs) || ctx.Err() != nil {
					return
				}
				got, c := jobs[i].run()
				mu.Lock()
				total.add(c)
				if got != jobs[i].want {
					bad = append(bad, jobs[i].key)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return total, bad, fmt.Errorf("replay: %w", err)
	}
	return total, bad, nil
}
