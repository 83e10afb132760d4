package main

// Isolated layer drives for the traced run: each replays the workload's
// own profiles through one layer's public functions, with any layer
// below it stubbed by dram.Fixed, and reports host time per unit of that
// layer's work. Inputs are generated before the timed loop, so each
// figure is the layer's own cost.

import (
	"fmt"
	"sort"
	"time"

	"lpm/internal/analyzer"
	"lpm/internal/explore"
	"lpm/internal/sim/cache"
	"lpm/internal/sim/chip"
	"lpm/internal/sim/cpu"
	"lpm/internal/sim/dram"
	"lpm/internal/trace"
)

// layerRig is one profile with the core, cache and memory configurations
// the workload runs it on.
type layerRig struct {
	prof   trace.Profile
	cpu    cpu.Config
	l1, l2 cache.Config
	mem    dram.Config
}

// rigsFor lists the configurations a workload's simulations use: the
// Table I configuration A chip on each walk stream for dse-walk, the
// Fig. 5 platform with each profile on one of the four L1 sizes
// otherwise.
func rigsFor(w workload, e *env) []layerRig {
	if w.name == "dse-walk" {
		var rigs []layerRig
		for i := 0; i < walkStreams; i++ {
			prof := walkProfile(e.seed, i)
			cfg := explore.ChipConfig(explore.TableConfigs()["A"], trace.NewSynthetic(prof))
			rigs = append(rigs, layerRig{prof: prof, cpu: cfg.Cores[0].CPU, l1: cfg.Cores[0].L1, l2: cfg.L2, mem: cfg.Mem})
		}
		return rigs
	}
	var rigs []layerRig
	for i, name := range e.names {
		prof := trace.MustProfile(name)
		if w.name != "nuca16-sched" { // the sweeps seed their streams; Fig. 8 takes names
			prof.Seed = e.seed
		}
		rigs = append(rigs, layerRig{
			prof: prof,
			cpu:  chip.NUCACPU("core0"),
			l1:   chip.DefaultL1("L1D-0", chip.NUCAGroupSizes[i%len(chip.NUCAGroupSizes)]),
			l2:   chip.NUCAL2(),
			mem:  chip.NUCAMem(),
		})
	}
	return rigs
}

// Work per isolated drive, split evenly over a workload's rigs.
const (
	traceInstrs   = 1_000_000
	cpuCycles     = 200_000
	cacheAccesses = 200_000
	dramRequests  = 50_000
	fixedLatency  = 100 // dram.Fixed service time below the caches, in cycles
)

// memStream is a profile's memory accesses, generated ahead of a drive.
type memStream struct {
	addr  []uint64
	write []bool
}

func memAccesses(p trace.Profile, n int) memStream {
	g := trace.NewSynthetic(p)
	s := memStream{addr: make([]uint64, 0, n), write: make([]bool, 0, n)}
	for len(s.addr) < n {
		in := g.Next()
		if in.Kind.IsMem() {
			s.addr = append(s.addr, in.Addr)
			s.write = append(s.write, in.Kind == trace.Store)
		}
	}
	return s
}

var sink uint64

// driveTrace times trace.Synthetic.Next; ns per instruction.
func driveTrace(rigs []layerRig) float64 {
	per := traceInstrs / len(rigs)
	var el time.Duration
	for _, r := range rigs {
		g := trace.NewSynthetic(r.prof)
		t0 := time.Now()
		for i := 0; i < per; i++ {
			sink ^= g.Next().Addr
		}
		el += time.Since(t0)
	}
	return float64(el.Nanoseconds()) / float64(per*len(rigs))
}

// fixedPort is the core's L1 port onto a dram.Fixed.
type fixedPort struct{ *dram.Fixed }

func (p fixedPort) Access(cycle, addr uint64, write bool, done func(uint64)) bool {
	return p.Request(cycle, 0, addr>>6, write, done)
}

// stuck aborts a drive whose layer stopped making progress, so a hang
// in the program fails the run instead of stalling it.
func stuck(layer string, cycle uint64) {
	panic(fmt.Sprintf("perfbench: %s drive made no progress by cycle %d", layer, cycle))
}

// replayGen replays a pre-generated instruction stream, so a core drive
// times the core and not the trace generator.
type replayGen struct {
	name string
	ins  []trace.Instr
	i    int
}

func (g *replayGen) Name() string { return g.name }
func (g *replayGen) Reset()       { g.i = 0 }
func (g *replayGen) Next() trace.Instr {
	in := g.ins[g.i%len(g.ins)]
	g.i++
	return in
}

// driveCPU times an out-of-order core replaying the profile's stream
// against a fixed-latency memory at the L1 hit latency; ns per cycle.
func driveCPU(rigs []layerRig) float64 {
	per := cpuCycles / len(rigs)
	var el time.Duration
	for _, r := range rigs {
		g := trace.NewSynthetic(r.prof)
		rg := &replayGen{name: r.prof.Name, ins: make([]trace.Instr, per*r.cpu.IssueWidth)}
		for i := range rg.ins {
			rg.ins[i] = g.Next()
		}
		f := &dram.Fixed{Latency: uint64(r.l1.HitLatency)}
		c := cpu.New(r.cpu, rg, fixedPort{f})
		t0 := time.Now()
		for cy := uint64(1); cy <= uint64(per); cy++ {
			c.Tick(cy)
			f.Tick(cy)
		}
		el += time.Since(t0)
		sink ^= c.Retired()
	}
	return float64(el.Nanoseconds()) / float64(per*len(rigs))
}

// cacheRun drives a profile's accesses through L1 and L2 over
// dram.Fixed. Like the core's load/store queue, it keeps at most the
// rig's LSQ size of accesses outstanding and offers at most one new
// access per cycle. With record set it returns each access's (start,
// done) cycles for the analyzer drive.
func cacheRun(r layerRig, s memStream, record bool) (starts, dones []uint64, el time.Duration) {
	l1, l2 := cache.New(r.l1), cache.New(r.l2)
	f := &dram.Fixed{Latency: fixedLatency}
	l1.SetLower(l2)
	l2.SetLower(f)
	n := len(s.addr)
	if record {
		starts, dones = make([]uint64, n), make([]uint64, n)
	}
	lsq := r.cpu.LSQSize
	if lsq == 0 {
		lsq = r.cpu.IWSize
	}
	outstanding := 0
	complete := func(uint64) { outstanding-- }
	limit := uint64(n)*fixedLatency + 1_000_000
	tick := func(cy uint64) {
		if cy > limit {
			stuck("cache", cy)
		}
		l1.Tick(cy)
		l2.Tick(cy)
		f.Tick(cy)
	}
	t0 := time.Now()
	var cy uint64
	for i := 0; i < n; {
		cy++
		if outstanding < lsq {
			done := complete
			if record {
				k := i
				done = func(c uint64) { outstanding--; dones[k] = c }
			}
			if l1.Access(cy, s.addr[i], s.write[i], done) {
				if record {
					starts[i] = cy
				}
				outstanding++
				i++
			}
		}
		tick(cy)
	}
	for outstanding > 0 || l1.Busy() || l2.Busy() || f.Busy() {
		cy++
		tick(cy)
	}
	return starts, dones, time.Since(t0)
}

// driveCache times the NUCA L1 + L2 pair; ns per L1 access.
func driveCache(rigs []layerRig, streams []memStream) float64 {
	var el time.Duration
	total := 0
	for i, r := range rigs {
		_, _, d := cacheRun(r, streams[i], false)
		el += d
		total += len(streams[i].addr)
	}
	return float64(el.Nanoseconds()) / float64(total)
}

// driveDRAM times the memory controller on the profiles' block stream,
// keeping at most the L2's MSHR count of reads outstanding as the L2
// would; ns per request.
func driveDRAM(rigs []layerRig, streams []memStream) float64 {
	var el time.Duration
	total := 0
	for i, r := range rigs {
		s := streams[i]
		n := min(len(s.addr), dramRequests/len(rigs))
		d := dram.New(r.mem)
		outstanding := 0
		complete := func(uint64) { outstanding-- }
		limit := uint64(n)*1000 + 1_000_000
		t0 := time.Now()
		var cy uint64
		for k := 0; k < n || outstanding > 0; {
			cy++
			if cy > limit {
				stuck("dram", cy)
			}
			if k < n && outstanding < r.l2.MSHRs && d.Request(cy, 0, s.addr[k]>>6, s.write[k], complete) {
				outstanding++
				k++
			}
			d.Tick(cy)
		}
		el += time.Since(t0)
		total += n
	}
	return float64(el.Nanoseconds()) / float64(total)
}

// anEvent is one analyzer call of a recorded access lifecycle.
type anEvent struct {
	cycle uint64
	kind  int // 0 ToMiss, 1 Done, 2 Start: the order Fig. 1's replay uses within a cycle
	idx   int
}

// driveAnalyzer replays the L1 access lifecycles a cache run recorded —
// start, a miss once the hit latency has passed without data, done —
// into a fresh C-AMAT analyzer, ticking it every cycle; ns per access.
func driveAnalyzer(rigs []layerRig, streams []memStream) float64 {
	var el time.Duration
	total := 0
	for i, r := range rigs {
		starts, dones, _ := cacheRun(r, streams[i], true)
		hit := uint64(r.l1.HitLatency)
		evs := make([]anEvent, 0, 3*len(starts))
		for k := range starts {
			evs = append(evs, anEvent{starts[k], 2, k}, anEvent{dones[k], 1, k})
			if dones[k] > starts[k]+hit {
				evs = append(evs, anEvent{starts[k] + hit, 0, k})
			}
		}
		sort.Slice(evs, func(a, b int) bool {
			if evs[a].cycle != evs[b].cycle {
				return evs[a].cycle < evs[b].cycle
			}
			if evs[a].kind != evs[b].kind {
				return evs[a].kind < evs[b].kind
			}
			return evs[a].idx < evs[b].idx
		})
		acc := make([]*analyzer.Access, len(starts))
		a := analyzer.New("L1")
		t0 := time.Now()
		j := 0
		for cy := evs[0].cycle; j < len(evs); cy++ {
			for ; j < len(evs) && evs[j].cycle == cy; j++ {
				e := evs[j]
				switch e.kind {
				case 0:
					a.ToMiss(acc[e.idx], cy)
				case 1:
					a.Done(acc[e.idx], cy)
				default:
					acc[e.idx] = a.Start(cy)
				}
			}
			a.Tick()
		}
		el += time.Since(t0)
		total += len(starts)
		sink ^= a.Snapshot().Accesses
	}
	return float64(el.Nanoseconds()) / float64(total)
}

// layerCosts runs every isolated drive three times and keeps the median
// of each.
func layerCosts(w workload, e *env) map[string]float64 {
	rigs := rigsFor(w, e)
	streams := make([]memStream, len(rigs))
	for i, r := range rigs {
		streams[i] = memAccesses(r.prof, cacheAccesses/len(rigs))
	}
	runs := map[string][]float64{}
	for rep := 0; rep < 3; rep++ {
		runs["trace.ns_per_instr"] = append(runs["trace.ns_per_instr"], driveTrace(rigs))
		runs["cpu.ns_per_cycle"] = append(runs["cpu.ns_per_cycle"], driveCPU(rigs))
		runs["cache.ns_per_access"] = append(runs["cache.ns_per_access"], driveCache(rigs, streams))
		runs["dram.ns_per_request"] = append(runs["dram.ns_per_request"], driveDRAM(rigs, streams))
		runs["analyzer.ns_per_access"] = append(runs["analyzer.ns_per_access"], driveAnalyzer(rigs, streams))
	}
	out := map[string]float64{}
	for k, v := range runs {
		out[k] = median(v)
	}
	return out
}

// Engine spans, as cmd/lpmbench times them.
const (
	singleCycles = 300_000
	nuca16Cycles = 30_000
)

// chipRates times the chip engine on the seeded 429.mcf NUCA reference
// platform (stepped, fast-forward, functional) and on the 16-core Fig. 5
// chip with the workload order (fast-forward, and its speedup over
// stepped); medians of three fresh chips each.
func chipRates(e *env) map[string]float64 {
	mcf := seededProfile("429.mcf", e.seed)
	single := func() *chip.Chip {
		return chip.New(chip.NUCASingle(trace.NewSynthetic(mcf), 64*chip.KB))
	}
	nuca := func() *chip.Chip {
		gens := make([]trace.Generator, len(e.names))
		for i, n := range e.names {
			gens[i] = trace.NewSynthetic(seededProfile(n, e.seed))
		}
		return chip.New(chip.NUCA16(gens))
	}
	rate := func(mk func() *chip.Chip, prep func(*chip.Chip), n uint64, run func(*chip.Chip, uint64)) float64 {
		var rs []float64
		for rep := 0; rep < 3; rep++ {
			ch := mk()
			prep(ch)
			t0 := time.Now()
			run(ch, n)
			rs = append(rs, float64(n)/time.Since(t0).Seconds())
		}
		return median(rs)
	}
	cycles := func(ch *chip.Chip, n uint64) { ch.RunCycles(n) }
	stepped := func(ch *chip.Chip) { ch.SetFastForward(false) }
	none := func(*chip.Chip) {}
	out := map[string]float64{
		"chip.stepped_cycles_per_s": rate(single, stepped, singleCycles, cycles),
		"chip.ff_cycles_per_s":      rate(single, none, singleCycles, cycles),
		"chip.functional_rounds_per_s": rate(single, func(ch *chip.Chip) { ch.SetTier(chip.TierFunctional) },
			singleCycles, func(ch *chip.Chip, n uint64) { _ = ch.RunFunctional(n) }),
		"chip.nuca16_cycles_per_s": rate(nuca, none, nuca16Cycles, cycles),
	}
	out["chip.nuca16_ff_speedup"] = ratio(out["chip.nuca16_cycles_per_s"], rate(nuca, stepped, nuca16Cycles, cycles))
	return out
}
