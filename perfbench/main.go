// Command perfbench is the repository's benchmark: it drives one named
// workload through the library's public functions, verifies every
// output, and prints end-to-end metrics (--trace 0) or per-layer
// metrics (--trace 1). The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the lines before
// it, each starting with "#", give run metadata, the result digest and
// every metric with its unit and sample count. See README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload profile-sweep --seed 0 --seconds 25 --trace 0
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lpm"
	"lpm/internal/parallel"
)

// config is one invocation's settings.
type config struct {
	w       workload
	seed    uint64
	seconds float64
	traced  bool
	workers int
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: profile-sweep, dse-walk, nuca16-sched or sharded-sweep")
	seed := fs.Uint64("seed", 0, "input seed; 0 reproduces the checked-in goldens")
	seconds := fs.Float64("seconds", 20, "how long to keep repeating the workload")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	probe := fs.Bool("setup-probe", false, "internal: set up, print ready, tear down (times setup_s)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, traced: *traceFlag == 1, workers: benchWorkers()}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	// Isolation guard: no more load threads than CPUs (the pool and the
	// fabric connections are benchWorkers wide, never above nproc).
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		fmt.Fprintf(stderr, "perfbench: refusing GOMAXPROCS %d on %d CPUs\n", runtime.GOMAXPROCS(0), n)
		return 2
	}
	parallel.SetWorkers(cfg.workers)
	if *probe {
		return setupProbe(ctx, cfg, stdout, stderr)
	}
	var res *result
	if cfg.traced {
		res, err = runTraced(ctx, cfg)
	} else {
		res, err = runEndToEnd(ctx, cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := res.print(stdout, cfg); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// benchWorkers is the pool width and the fabric worker count:
// min(2, nproc).
func benchWorkers() int { return min(2, runtime.NumCPU()) }

// setupProbe does what a run does before its workload is ready — load
// the goldens, derive the inputs, start the fabric and join its workers
// — then reports ready on stdout and tears everything down.
func setupProbe(ctx context.Context, cfg config, stdout, stderr io.Writer) int {
	rig, err := setUp(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	_, werr := fmt.Fprintln(stdout, "ready")
	if rig != nil {
		err = rig.close()
	}
	if werr != nil || err != nil {
		return 1
	}
	return 0
}

// setUp loads the verification data and, for the sharded workload,
// starts a fabric, which the caller closes. (Each pass derives its own
// inputs from the seed inside its timed span.)
func setUp(ctx context.Context, cfg config) (*fabricRig, error) {
	if _, err := loadRefs(); err != nil {
		return nil, err
	}
	if !cfg.w.sharded {
		return nil, nil
	}
	return startFabric(ctx, cfg.workers, false, false)
}

// setupProbes is how many process starts setup_s takes the median of.
const setupProbes = 31

// timeSetups starts the benchmark binary setupProbes times in
// setup-probe mode and times each from process start to its ready line.
func timeSetups(ctx context.Context, cfg config) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.CommandContext(ctx, exe, "--setup-probe", "--workload", cfg.w.name,
			"--seed", strconv.FormatUint(cfg.seed, 10))
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(pipe).ReadString('\n')
		d := time.Since(t0).Seconds()
		_, _ = io.Copy(io.Discard, pipe)
		werr := cmd.Wait()
		if rerr != nil || strings.TrimSpace(line) != "ready" || werr != nil {
			return nil, fmt.Errorf("setup probe: %q %v %v", line, rerr, werr)
		}
		out = append(out, d)
	}
	return out, nil
}

// passRun is one timed, verified pass.
type passRun struct {
	p      *pass
	failed int
	// rssMB is the peak resident set during the pass; rssReset says
	// whether the high-water mark was restarted for it.
	rssMB    float64
	rssReset bool
	// fabric readouts of traced sharded passes
	execCounts []float64
	execSec    float64
}

// onePass runs the workload once from an empty memo: for the sharded
// workload on a fresh fabric, so no pass sees another's cached results.
// The timed span runs from the first call into the workload to its
// verified result.
func onePass(ctx context.Context, cfg config, e *env, ck *checker, journal bool) (*passRun, error) {
	parallel.ResetAllMemos()
	if h, m := lpm.SimCacheStats(); h != 0 || m != 0 {
		return nil, fmt.Errorf("memo not empty after reset: %d hits, %d misses", h, m)
	}
	debug.FreeOSMemory() // every pass starts from the same collected, returned heap
	reset := resetPeakRSS()
	var rig *fabricRig
	if cfg.w.sharded {
		var err error
		if rig, err = startFabric(ctx, cfg.workers, e.sp != nil, journal); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	p := cfg.w.pass(ctx, e)
	r := &passRun{p: p, failed: ck.check(p)}
	p.wall = time.Since(t0)
	r.rssMB, r.rssReset = peakRSSMB(), reset
	if rig != nil {
		var err error
		if e.sp != nil {
			r.execCounts, r.execSec, err = rig.workerExec()
		}
		if cerr := rig.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

// repeat runs passes while the next one is expected to end within the
// budget (and at least minReps), so a run spends about budget seconds
// measuring.
func repeat(ctx context.Context, cfg config, e *env, ck *checker, budget float64, minReps int) ([]*passRun, error) {
	start := time.Now()
	var runs []*passRun
	for len(runs) < minReps || time.Since(start).Seconds()+runs[len(runs)-1].p.wall.Seconds() <= budget {
		r, err := onePass(ctx, cfg, e, ck, false)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

func walls(runs []*passRun) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.p.wall.Seconds()
	}
	return out
}

// metric is one printed measurement.
type metric struct {
	name  string
	unit  string
	value float64
	n     int    // samples behind the value
	note  string // how it was derived, or why it is absent
}

// result is what a run prints.
type result struct {
	digest    string
	verdicts  []string
	attempted int
	failed    int
	metrics   []metric // the JSON line's metrics
	extra     []metric // printed only, not in the JSON line
	table     []string // "where the time goes" rows (traced)
}

// verify closes out a run: the replay must reproduce the last pass and
// give the work counts; the sharded workload must also match the
// in-process sweep.
func verify(ctx context.Context, cfg config, ck *checker, runs []*passRun, res *result) (simCount, error) {
	last := runs[len(runs)-1].p
	for _, r := range runs {
		res.attempted += len(r.p.ops)
		res.failed += r.failed
	}
	res.digest = digest(last.doc)
	counts, bad, err := replay(ctx, last.sims, cfg.workers)
	if err != nil {
		return counts, err
	}
	sort.Strings(bad)
	res.failed += len(bad)
	for _, k := range bad {
		ck.note(k + ": replay through the chip API differs")
	}
	res.verdicts = append(res.verdicts, fmt.Sprintf("replay: %d/%d simulations reproduced bit for bit through the chip API (the same layers, so a determinism check)", len(last.sims)-len(bad), len(last.sims)))
	if cfg.w.sharded {
		parallel.ResetAllMemos()
		ref := profileSweep(ctx, newEnv(cfg.seed))
		if d := digest(ref.doc); d != res.digest {
			res.failed += len(last.ops)
			ck.note("sharded digest " + res.digest + " != in-process profile-sweep digest " + d)
		} else {
			res.verdicts = append(res.verdicts, "sharded-sweep digest equals the in-process profile-sweep digest")
		}
	}
	res.verdicts = append(res.verdicts, checkedAgainst(cfg.seed, last))
	res.verdicts = append(res.verdicts, ck.notes...)
	return counts, nil
}

// checkedAgainst names what the pass's output was compared with beyond
// the run's first pass and the replay. Outside the pinned seeds those
// two only show the run is deterministic: they re-run the same layers,
// so a changed result shows only by comparing the printed digest with
// the parent's run at the same seed.
func checkedAgainst(seed uint64, p *pass) string {
	if seed >= pinnedSeeds {
		return fmt.Sprintf("seed %d: not pinned (pinned seeds are 0-%d): correct covers only determinism "+
			"(every pass vs the first, the replay); compare the digest with the parent's run", seed, pinnedSeeds-1)
	}
	var out []string
	for _, part := range sortedKeys(p.parts) {
		if f, ok := goldenParts[part]; ok && seed == 0 {
			out = append(out, "golden "+f)
		}
		out = append(out, "pinned digest of "+part)
	}
	return fmt.Sprintf("seed %d: checked against %s, every pass vs the first, and the replay", seed, strings.Join(out, ", "))
}

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(ctx context.Context, cfg config) (*result, error) {
	setups, err := timeSetups(ctx, cfg)
	if err != nil {
		return nil, err
	}
	refs, err := loadRefs()
	if err != nil {
		return nil, err
	}
	e := newEnv(cfg.seed)
	ck := &checker{refs: refs, seed: cfg.seed}
	runs, err := repeat(ctx, cfg, e, ck, cfg.seconds, 3)
	if err != nil {
		return nil, err
	}
	rss, rssNote := passRSS(runs)
	res := &result{}
	counts, err := verify(ctx, cfg, ck, runs, res)
	if err != nil {
		return nil, err
	}
	wd := summarize(walls(runs))
	last := runs[len(runs)-1].p
	res.metrics = []metric{
		{name: "wall_s", unit: "s", value: wd.P50, n: wd.N, note: tailNote(wd) + "; passes " + fmtList(walls(runs), 3)},
		{name: "sim_minstr_per_s", unit: "Minstr/s", value: float64(counts.Instructions) / 1e6 / wd.P50, n: wd.N,
			note: fmt.Sprintf("numerator %d instructions retired in %d measured windows", counts.Instructions, counts.Sims)},
		{name: "setup_s", unit: "s", value: median(setups), n: len(setups), note: "process start to ready, median of setup probes"},
		{name: "peak_rss_mb", unit: "MB", value: rss, n: len(runs), note: rssNote},
	}
	res.extra = []metric{
		{name: "error_rate", unit: "ratio", value: ratio(float64(res.failed), float64(res.attempted)), n: res.attempted,
			note: fmt.Sprintf("%d failed of %d operations", res.failed, res.attempted)},
		paperMetric(cfg.w, cfg.seed, last),
	}
	return res, nil
}

// passRSS is the median over passes of each pass's peak resident set.
// Where the high-water mark cannot be restarted, every reading is the
// peak since process start.
func passRSS(runs []*passRun) (float64, string) {
	xs := make([]float64, len(runs))
	note := "median over passes of the peak resident set during the pass"
	for i, r := range runs {
		xs[i] = r.rssMB
		if !r.rssReset {
			note = "peak resident set since process start (high-water mark not resettable here)"
		}
	}
	return median(xs), note + "; passes " + fmtList(xs, 1)
}

// paperMetric reports the error against the paper's own numbers where
// the workload has any.
func paperMetric(w workload, seed uint64, p *pass) metric {
	if math.IsNaN(p.paperErr) {
		note := "unvalidated vs paper; checked for byte-identity with the golden"
		if seed != 0 && seed < pinnedSeeds {
			note += " at seed 0; at this seed against its pinned digest"
		} else if seed != 0 {
			note += " at seed 0; this seed is not pinned, so only determinism is checked"
		}
		return metric{name: "paper_err_pct", unit: "%", value: 0, n: 0, note: note}
	}
	over := "Table I LPMR1-3 (15 values)"
	if w.name == "nuca16-sched" {
		over = "Fig. 8 Hsp (4 policies)"
	}
	return metric{name: "paper_err_pct", unit: "%", value: p.paperErr, n: 1, note: "simulated; mean abs relative error over " + over}
}

// fmtList renders per-pass values for the metric notes.
func fmtList(xs []float64, prec int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', prec, 64)
	}
	return strings.Join(parts, " ")
}

func tailNote(d dist) string {
	if d.Rank == 0 {
		return fmt.Sprintf("median; tail n/a (needs >=11 samples, have %d)", d.N)
	}
	return fmt.Sprintf("median; tail %.6g at p%.1f", d.Tail, d.Rank)
}

// print writes the comment lines and the final JSON line.
func (r *result) print(w io.Writer, cfg config) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# perfbench workload=%s seed=%d trace=%d seconds=%g\n", cfg.w.name, cfg.seed, btoi(cfg.traced), cfg.seconds)
	fmt.Fprintf(&b, "# meta nproc=%d gomaxprocs=%d workers=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.workers, runtime.Version(), gitCommit())
	fmt.Fprintf(&b, "# digest %s %s\n", cfg.w.name, r.digest)
	for _, v := range r.verdicts {
		fmt.Fprintf(&b, "# check %s\n", v)
	}
	kind := "e2e"
	if cfg.traced {
		kind = "layer"
	}
	for _, m := range r.metrics {
		fmt.Fprintf(&b, "# %s %-34s %14.6g %-10s n=%-4d %s\n", kind, m.name, m.value, m.unit, m.n, m.note)
	}
	for _, m := range r.extra {
		fmt.Fprintf(&b, "# e2e %-34s %14.6g %-10s n=%-4d %s (printed only)\n", m.name, m.value, m.unit, m.n, m.note)
	}
	for _, row := range r.table {
		fmt.Fprintf(&b, "# table %s\n", row)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jm{}}
	for _, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = jm{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = w.Write(b.Bytes())
	return err
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runTraced is the per-layer run: untraced passes for the baseline (for
// the sharded workload alternating with journaled ones), traced passes
// under the CPU profiler with spans around every call into a layer, the
// replay for the simulated work counts, and the isolated layer drives.
func runTraced(ctx context.Context, cfg config) (*result, error) {
	refs, err := loadRefs()
	if err != nil {
		return nil, err
	}
	e := newEnv(cfg.seed)
	ck := &checker{refs: refs, seed: cfg.seed}
	third := cfg.seconds / 3
	// Pairing each journaled pass with the plain pass before it makes
	// the journal's cost a median of paired differences, so slow drift
	// of the host cancels out.
	var base, journaled []*passRun
	start := time.Now()
	round := 0.0
	for len(base) < 2 || time.Since(start).Seconds()+round <= third {
		t0 := time.Now()
		r, err := onePass(ctx, cfg, e, ck, false)
		if err != nil {
			return nil, err
		}
		base = append(base, r)
		if cfg.w.sharded {
			if r, err = onePass(ctx, cfg, e, ck, true); err != nil {
				return nil, err
			}
			journaled = append(journaled, r)
		}
		round = time.Since(t0).Seconds()
	}
	sp := newSpans()
	e.sp = sp
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	traced, err := repeat(ctx, cfg, e, ck, third, 2)
	rt1 := readRuntime()
	pprof.StopCPUProfile()
	e.sp = nil
	if err != nil {
		return nil, err
	}
	hits, misses := lpm.SimCacheStats() // of the last traced pass
	all := append(append(append([]*passRun(nil), base...), traced...), journaled...)
	res := &result{}
	counts, err := verify(ctx, cfg, ck, all, res)
	if err != nil {
		return nil, err
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares, nSamples := profShares(samples)
	tr := tracedRun{base: base, traced: traced, journaled: journaled, sp: sp, hits: hits, misses: misses,
		rt0: rt0, rt1: rt1, counts: counts, shares: shares, samples: nSamples}
	res.metrics = append(tr.metrics(cfg), layerCostMetrics(cfg, e)...)
	res.metrics = append(res.metrics, metric{name: "bench.trace_overhead_pct", unit: "%",
		value: 100 * (median(walls(traced)) - median(walls(base))) / median(walls(base)), n: len(traced),
		note: fmt.Sprintf("traced pass median vs %d untraced passes", len(base))})
	res.table = tr.table(cfg)
	return res, nil
}
