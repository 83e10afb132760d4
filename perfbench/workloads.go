package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"lpm"
	"lpm/internal/core"
	"lpm/internal/explore"
	"lpm/internal/fabric"
	"lpm/internal/parallel"
	"lpm/internal/sched"
	"lpm/internal/sim/chip"
	"lpm/internal/trace"
)

// workload is one named input set the benchmark drives through the
// library's public functions; BENCHMARK.json and README.md say why each
// was chosen.
type workload struct {
	name string
	// sharded marks the workload that needs a sweep fabric per pass.
	sharded bool
	// pass runs the workload once; e carries the seed-derived inputs.
	pass func(ctx context.Context, e *env) *pass
}

var workloads = []workload{
	{name: "profile-sweep", pass: profileSweep},
	{name: "dse-walk", pass: dseWalk},
	{name: "nuca16-sched", pass: nuca16Sched},
	{name: "sharded-sweep", pass: shardedSweep, sharded: true},
}

// workloadByName finds a workload.
func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// env carries one run's seed-derived inputs and the traced run's span
// recorder (nil when untraced).
type env struct {
	seed uint64
	// names is the workload order handed to layers that take names;
	// sorted (the paper's order) at seed 0, shuffled otherwise.
	names []string
	sp    *spans
}

func newEnv(seed uint64) *env {
	return &env{seed: seed, names: workloadOrder(seed)}
}

// seededProfile returns the named built-in profile with the benchmark
// seed as its stream seed. Seed 0 is the built-in stream, so the default
// seed reproduces the checked-in goldens.
func seededProfile(name string, seed uint64) trace.Profile {
	p := trace.MustProfile(name)
	p.Seed = seed
	return p
}

// workloadOrder is the benchmark's name order for seed: the sorted
// built-in names at seed 0, a seeded Fisher-Yates shuffle otherwise.
func workloadOrder(seed uint64) []string {
	names := trace.ProfileNames()
	if seed == 0 {
		return names
	}
	x := seed
	for i := len(names) - 1; i > 0; i-- {
		j := int(splitmix(&x) % uint64(i+1))
		names[i], names[j] = names[j], names[i]
	}
	return names
}

// splitmix is the splitmix64 step, the benchmark's own seed expander.
func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// op is one operation of a pass: one simulation or one granule.
type op struct {
	key string
	// val is the operation's output as canonical JSON; encoding/json
	// writes float64 in shortest round-trip form, so equal strings mean
	// bit-identical outputs.
	val string
	err error
}

// pass is one run of a workload.
type pass struct {
	ops []op
	// doc is the workload's result document; the printed digest is over
	// its indented JSON encoding.
	doc any
	// parts are sub-documents checked on their own against a golden file
	// or a pinned digest, by name.
	parts map[string]any
	// paperErr is the mean absolute relative error against the paper's
	// own numbers, in percent; NaN where the paper has none.
	paperErr float64
	// sims are the distinct simulations the pass ran, for the replay.
	sims []simJob
	// steps counts Fig. 3 algorithm iterations (dse-walk only).
	steps int
	// wall is the measured wall time of the pass, set by the caller.
	wall time.Duration
}

func canon(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "marshal error: " + err.Error()
	}
	return string(b)
}

// QuickScale budgets, as lpmreport -quick uses them.
var quick = lpm.QuickScale()

// profileSpecs are the quick Fig. 6/7 profiling runs in BuildProfileTable
// order (sorted names, then L1 sizes), with the options normalised the
// way the library normalises them.
func profileSpecs(seed uint64) []sched.ProfileSpec {
	opt := profileOpt(quick.Window, quick.Warmup/2)
	var specs []sched.ProfileSpec
	for _, name := range trace.ProfileNames() {
		for _, size := range chip.NUCAGroupSizes {
			specs = append(specs, sched.ProfileSpec{Profile: seededProfile(name, seed), L1Size: size, Opt: opt})
		}
	}
	return specs
}

// profileOpt returns explicit profiling options equal to what the
// library derives from (instructions, warmup).
func profileOpt(instr, warm uint64) sched.ProfileOptions {
	return sched.ProfileOptions{Instructions: instr, Warmup: warm, MaxCycles: (warm + instr) * 600}
}

var errNoFabric = errors.New("no sweep fabric active")

// profileSweep runs the 64 profiling simulations in process.
func profileSweep(ctx context.Context, e *env) *pass {
	return sweep(ctx, e, false)
}

// shardedSweep runs the same simulations as granules through the active
// fabric.
func shardedSweep(ctx context.Context, e *env) *pass {
	return sweep(ctx, e, true)
}

// sweepMemo stands in for sched's profile memo, which BuildProfileTable
// reaches only for built-in profiles by name: each sweep simulation goes
// through a parallel.Memo under the spec's memo key, as in the library's
// profiling path, so the memo's cost and counts are measured here too.
// ResetAllMemos clears it with the others.
var sweepMemo = parallel.NewMemo[[3]float64]()

// sweep runs the 64 profiling simulations the way sched's profileOne
// does: a memo lookup, then the fabric granule (sharded) or the local
// simulation.
func sweep(ctx context.Context, e *env, sharded bool) *pass {
	specs := profileSpecs(e.seed)
	res := parallel.MapResults(ctx, specs, func(ctx context.Context, s sched.ProfileSpec) ([3]float64, error) {
		key := s.MemoKey()
		return sweepMemo.DoCtx(ctx, key, func(ctx context.Context) ([3]float64, error) {
			if sharded {
				var out [3]float64
				t0 := e.sp.start()
				ok, err := fabric.Compute(ctx, sched.ProfileKind, key, s, &out)
				e.sp.end("fabric.submit", t0)
				if !ok {
					err = errNoFabric
				}
				return out, err
			}
			t0 := e.sp.start()
			r, err := sched.RunProfileSpec(ctx, s)
			e.sp.end("sched.profile_sim", t0)
			return r, err
		})
	})
	p := &pass{paperErr: math.NaN()}
	vals := make([][3]float64, len(specs))
	for i, s := range specs {
		vals[i] = res[i].Val
		o := op{key: profileKey(s.Profile.Name, s.L1Size), val: canon(res[i].Val), err: res[i].Err}
		p.ops = append(p.ops, o)
		p.sims = append(p.sims, profileJob(o.key, o.val, s))
	}
	tbl := profileTable(trace.ProfileNames(), chip.NUCAGroupSizes[:], vals)
	p.doc = tbl
	p.parts = map[string]any{"fig67": tbl}
	return p
}

func profileKey(name string, size uint64) string { return fmt.Sprintf("profile/%s/%d", name, size) }

// profileTable assembles results laid out name-major, size-minor into
// the library's ProfileTable shape.
func profileTable(names []string, sizes []uint64, vals [][3]float64) *sched.ProfileTable {
	t := &sched.ProfileTable{
		Sizes:     append([]uint64(nil), sizes...),
		Workloads: append([]string(nil), names...),
		APC1:      map[string][]float64{},
		APC2:      map[string][]float64{},
		IPC:       map[string][]float64{},
	}
	for ni, name := range names {
		a1, a2, ipc := make([]float64, len(sizes)), make([]float64, len(sizes)), make([]float64, len(sizes))
		for si := range sizes {
			r := vals[ni*len(sizes)+si]
			a1[si], a2[si], ipc[si] = r[0], r[1], r[2]
		}
		t.APC1[name], t.APC2[name], t.IPC[name] = a1, a2, ipc
	}
	return t
}

// paperTable1 holds the LPMR1-3 values of the paper's Table I.
var paperTable1 = map[string][3]float64{
	"A": {8.1, 9.6, 6.4},
	"B": {6.2, 9.3, 8.1},
	"C": {2.1, 3.1, 5.8},
	"D": {1.2, 1.6, 2.3},
	"E": {1.4, 1.9, 2.6},
}

// paperFig8 holds the Hsp values of the paper's Fig. 8.
var paperFig8 = map[string]float64{
	"Random":      0.7986,
	"RoundRobin":  0.8192,
	"NUCA-SA(cg)": 0.8742,
	"NUCA-SA(fg)": 0.9106,
}

// dseDoc is the dse-walk result document.
type dseDoc struct {
	Table1     []lpm.Table1Row
	CaseStudyI []lpm.CaseStudyIResult
}

// walkStreams is how many seeded 410.bwaves streams a dse-walk pass
// walks. A walk's length depends on its stream: with one stream a pass
// runs 22 to 29 simulations depending on the seed, so wall_s would follow
// the seed more than the code; three streams average that out while a
// pass stays short enough to repeat several times in a run.
const walkStreams = 3

// walkProfile is stream i of a dse-walk pass at seed. Its stream seed is
// seed*walkStreams+i, so stream 0 at seed 0 is the built-in stream that
// lpm.Table1 and lpm.CaseStudyI use, and no two seeds share a stream.
func walkProfile(seed uint64, i int) trace.Profile {
	return seededProfile("410.bwaves", seed*walkStreams+uint64(i))
}

// dseWalk evaluates Table I on stream 0 and then runs the coarse and
// fine Case Study I walks from configuration A on each of the
// walkStreams streams in turn, all sharing the process memo.
func dseWalk(ctx context.Context, e *env) *pass {
	cfgs := explore.TableConfigs()
	target := func(ctx context.Context, prof trace.Profile, start explore.Point, walk bool) *explore.HardwareTarget {
		t := explore.NewHardwareTarget(explore.DefaultSpace(), start, prof)
		t.Warmup, t.Instructions = quick.Warmup, quick.Window
		t.Ctx = ctx
		e.hookEvaluations(t, walk)
		return t
	}
	p := &pass{}
	names := []string{"A", "B", "C", "D", "E"}
	res := parallel.MapResults(ctx, names, func(ctx context.Context, n string) (lpm.Table1Row, error) {
		m := target(ctx, walkProfile(e.seed, 0), cfgs[n], false).Measure()
		return lpm.Table1Row{Name: n, Point: cfgs[n], M: m, PaperLPMR: paperTable1[n]}, nil
	})
	doc := dseDoc{}
	// measured keeps each distinct simulation's result (a point on a
	// stream), in first-seen order, for the replay.
	type sim struct {
		stream int
		pt     explore.Point
	}
	measured := map[sim]core.Measurement{}
	var order []sim
	record := func(stream int, pt explore.Point, m core.Measurement) {
		k := sim{stream, pt}
		if _, ok := measured[k]; !ok {
			order = append(order, k)
		}
		measured[k] = m
	}
	errSum, errN := 0.0, 0
	for i, r := range res {
		row := r.Val
		if r.Err != nil {
			row = lpm.Table1Row{Name: names[i], Point: cfgs[names[i]], PaperLPMR: paperTable1[names[i]], Err: r.Err.Error()}
		} else {
			record(0, row.Point, row.M)
			got := [3]float64{row.M.LPMR1(), row.M.LPMR2(), row.M.LPMR3()}
			for k, want := range row.PaperLPMR {
				errSum += math.Abs(got[k]-want) / want
				errN++
			}
		}
		doc.Table1 = append(doc.Table1, row)
		p.ops = append(p.ops, op{key: "table1/" + names[i], val: canon(row), err: r.Err})
	}
	p.paperErr = 100 * errSum / float64(max(errN, 1))
	for si := 0; si < walkStreams; si++ {
		for _, g := range []core.Grain{core.CoarseGrain, core.FineGrain} {
			tgt := target(ctx, walkProfile(e.seed, si), cfgs["A"], true)
			t0 := e.sp.start()
			alg, final, err := tgt.RunAlgorithmCtx(ctx, core.AlgorithmConfig{Grain: g, SlackFrac: 0.5, MaxSteps: 32})
			e.sp.end("core.walk", t0)
			p.steps += len(alg.Steps)
			for i, ev := range tgt.History() {
				record(si, ev.Point, ev.M)
				p.ops = append(p.ops, op{key: fmt.Sprintf("walk/%d/%s/%d", si, g, i), val: canon(ev.M)})
			}
			if err != nil {
				p.ops = append(p.ops, op{key: fmt.Sprintf("walk/%d/%s/error", si, g), err: err})
			}
			doc.CaseStudyI = append(doc.CaseStudyI, lpm.CaseStudyIResult{
				Algorithm: alg, Final: final, Evaluations: tgt.Evaluations(), SpaceSize: explore.DefaultSpace().Size(),
			})
		}
	}
	for _, k := range order {
		p.sims = append(p.sims, pointJob(k.stream, k.pt, walkProfile(e.seed, k.stream), canon(measured[k])))
	}
	p.doc = doc
	p.parts = map[string]any{"table1": doc.Table1, "casestudy1": doc.CaseStudyI}
	return p
}

// hookEvaluations records explore.eval spans from the target's
// OnEvaluate hook: each span runs from the previous evaluation (or the
// hook's installation) to this one. Walk evaluations also feed
// explore.walk_eval, so the algorithm's own time is the walk span minus
// those.
func (e *env) hookEvaluations(t *explore.HardwareTarget, walk bool) {
	if e.sp == nil {
		return
	}
	last := time.Now()
	t.OnEvaluate = func(explore.Evaluation) {
		now := time.Now()
		d := now.Sub(last).Seconds()
		last = now
		e.sp.add("explore.eval", d)
		if walk {
			e.sp.add("explore.walk_eval", d)
		}
	}
}

// nucaDoc is the nuca16-sched result document.
type nucaDoc struct {
	Table       *sched.ProfileTable
	AloneIPC    []float64
	Evaluations []*sched.Evaluation
}

// The Fig. 8 protocol lpm.Fig8 pins.
var (
	nucaProfileOpt = profileOpt(10000, 25000)
	nucaEvalOpt    = sched.EvalOptions{WindowCycles: 80000, WarmupCycles: 40000}
)

// nucaPolicies are Fig. 8's four policies plus the PIE-like baseline.
func nucaPolicies(seed uint64, tbl *sched.ProfileTable) []sched.Scheduler {
	return []sched.Scheduler{
		sched.Random{Seed: 1 + seed},
		sched.RoundRobin{},
		sched.NUCASA{Table: tbl, TolFrac: 0.10},
		sched.NUCASA{Table: tbl, TolFrac: 0.01},
		sched.PIE{Table: tbl},
	}
}

// nuca16Sched runs the Fig. 8 pipeline on the seeded workload order.
func nuca16Sched(ctx context.Context, e *env) *pass {
	names, sizes := e.names, chip.NUCAGroupSizes[:]
	p := &pass{paperErr: math.NaN()}
	// fail records the n operations a failed phase leaves unrun.
	fail := func(n int, err error) {
		for i := 0; i < n; i++ {
			p.ops = append(p.ops, op{key: fmt.Sprintf("unrun/%d", i), err: err})
		}
	}
	t0, c0 := e.sp.start(), e.cpuStart()
	tbl, err := sched.BuildProfileTable(ctx, names, sizes, nucaProfileOpt)
	e.sp.end("sched.table", t0)
	e.cpuEnd("sched.table_cpu", c0)
	if err != nil {
		fail(len(names)*len(sizes)+len(names)+len(nucaPolicies(e.seed, nil)), err)
		return p
	}
	for _, name := range names {
		for si, size := range sizes {
			o := op{key: profileKey(name, size), val: canon([3]float64{tbl.APC1[name][si], tbl.APC2[name][si], tbl.IPC[name][si]})}
			p.ops = append(p.ops, o)
			p.sims = append(p.sims, profileJob(o.key, o.val,
				sched.ProfileSpec{Profile: trace.MustProfile(name), L1Size: size, Opt: nucaProfileOpt}))
		}
	}
	opt := nucaEvalOpt
	t0, c0 = e.sp.start(), e.cpuStart()
	alone, err := sched.AloneIPCs(ctx, names, sizes, opt)
	e.sp.end("sched.alone", t0)
	e.cpuEnd("sched.alone_cpu", c0)
	if err != nil {
		fail(len(names)+len(nucaPolicies(e.seed, nil)), err)
		return p
	}
	for i, name := range names {
		o := op{key: "alone/" + name, val: canon(alone[i])}
		p.ops = append(p.ops, o)
		p.sims = append(p.sims, aloneJob(o.key, o.val, name, sizes[len(sizes)-1]))
	}
	opt.AloneIPC = alone
	pols := nucaPolicies(e.seed, tbl)
	res := parallel.MapResults(ctx, pols, func(ctx context.Context, s sched.Scheduler) (*sched.Evaluation, error) {
		t0 := e.sp.start()
		ev, err := sched.Evaluate(ctx, s, names, sizes, opt)
		e.sp.end("sched.evaluate", t0)
		return ev, err
	})
	doc := nucaDoc{Table: tbl, AloneIPC: alone}
	errSum, errN := 0.0, 0
	for i, r := range res {
		o := op{key: "evaluate/" + pols[i].Name(), val: canon(r.Val), err: r.Err}
		p.ops = append(p.ops, o)
		doc.Evaluations = append(doc.Evaluations, r.Val)
		if r.Err != nil {
			continue
		}
		p.sims = append(p.sims, evaluateJob(o.key, o.val, pols[i], names, sizes, alone))
		if want, ok := paperFig8[r.Val.Scheduler]; ok {
			errSum += math.Abs(r.Val.Hsp-want) / want
			errN++
		}
	}
	p.paperErr = 100 * errSum / float64(max(errN, 1))
	p.doc = doc
	p.parts = map[string]any{"fig8": doc}
	return p
}
