// Command lpmbench measures the simulator core's throughput and pins it
// to the repository as BENCH_core.json (schema lpm-bench/v1). Three
// engines are timed on the same fixed workload:
//
//   - detailed_stepped: the cycle-accurate engine with quiescent-cycle
//     fast-forward disabled — every cycle ticked.
//   - detailed_fastforward: the same engine with fast-forward enabled —
//     the default production configuration.
//   - functional: the warm-up tier (RunFunctional), in rounds/sec.
//
// Usage:
//
//	lpmbench                    # print the measurement
//	lpmbench -o BENCH_core.json # pin it (atomic rewrite)
//	lpmbench -check BENCH_core.json
//
// -check re-measures and compares the relative speedups — fast-forward
// over stepped, functional over stepped — against the pinned file,
// failing (exit 1) when a fresh ratio drops below 80% of the pinned one
// (>20% regression). Ratios, not absolute rates, are compared: absolute
// cycles/sec varies machine to machine, while the speedup the
// event-driven core delivers over its own stepped baseline is the
// invariant this gate protects.
//
// Beyond the engine rates the document also pins the control-plane
// serve path (serve_scrape_seconds — one fleet /metrics scrape), the
// instrumentation tax (instrumentation_overhead — obs sampler, fabric
// telemetry probes, serve scrape as fractions, 0.01 = 1%), and the
// fleet's crash-recovery latency (fleet_recover_seconds — coordinator
// kill to first post-resume granule completion through the journal
// replay path) and the trace arena's replay speedup
// (trace_replay_speedup — live synthetic generation over replay from
// the process arena, per instruction, across the built-in profiles).
// The overheads are trend lines; fleet_recover_seconds and
// trace_replay_speedup join the engine speedups under the -check gate.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"lpm/internal/cliutil"
	"lpm/internal/ctrl"
	"lpm/internal/fabric"
	"lpm/internal/lint"
	"lpm/internal/obs"
	"lpm/internal/obs/timeseries"
	"lpm/internal/resilience"
	"lpm/internal/sim/chip"
	"lpm/internal/trace"
)

// Schema identifies the document format.
const Schema = "lpm-bench/v1"

// benchWorkload is the pinned measurement workload: the memory-bound
// 429.mcf on the NUCA standalone-reference platform — the exact
// configuration the Fig. 6-8 profiling and alone-IPC runs use, which
// dominate the report's wall-clock.
const benchWorkload = "429.mcf"

// benchConfig builds one fresh measurement chip.
func benchConfig() chip.Config {
	prof := trace.MustProfile(benchWorkload)
	return chip.NUCASingle(trace.NewSynthetic(prof), 64*chip.KB)
}

// Document is the pinned benchmark file.
type Document struct {
	Schema   string `json:"schema"`
	Commit   string `json:"commit"`
	Date     string `json:"date"`
	Go       string `json:"go"`
	OS       string `json:"os"`
	Arch     string `json:"arch"`
	CPUs     int    `json:"cpus"`
	Workload string `json:"workload"`
	// Cycles is the measured span per repetition; Reps repetitions run
	// and the best (least-interfered) rate is kept.
	Cycles uint64 `json:"cycles"`
	Reps   int    `json:"reps"`
	// CyclesPerSec are best-of-reps simulated cycles (functional:
	// rounds) per wall-clock second, per engine.
	CyclesPerSec map[string]float64 `json:"cycles_per_sec"`
	// LintSeconds is the wall-clock of a full-suite lpmlint run over the
	// module: "cold" with an empty load cache, "warm" the no-change
	// re-run through the content-keyed cache. Recorded for trend
	// watching; the -check gate compares only the engine speedups.
	LintSeconds map[string]float64 `json:"lint_seconds,omitempty"`
	// ServeScrapeSeconds is the best-of-reps mean wall-clock of one
	// fleet /metrics scrape against a control-plane registry carrying
	// three finished runs with published snapshots.
	ServeScrapeSeconds float64 `json:"serve_scrape_seconds,omitempty"`
	// FleetRecoverSeconds is the best-of-reps wall-clock from killing a
	// journaling coordinator mid-sweep to the first granule completion
	// on its successor: journal replay, listener re-bind, worker
	// redial+handshake, and one granule round trip, end to end.
	FleetRecoverSeconds float64 `json:"fleet_recover_seconds,omitempty"`
	// Overhead pins the instrumentation tax as fractions (0.01 = 1%):
	// sampler_publish (the per-window control-plane publish sequence
	// over one window's wall-clock), fabric_telemetry (one granule's
	// probe sequence over one bench-sized granule's wall-clock),
	// serve_scrape (one fleet scrape against a 1 Hz scrape cadence).
	// Trend lines, not gated.
	Overhead map[string]float64 `json:"instrumentation_overhead,omitempty"`
	// TraceReplaySpeedup is live ns/instr over replay ns/instr: the
	// built-in profiles' streams drawn from trace.NewSynthetic and from
	// trace.Open cursors replaying recordings, best of reps. A ratio
	// of two rates on the same host, so gated like the engine speedups.
	TraceReplaySpeedup float64 `json:"trace_replay_speedup,omitempty"`
}

// errRegression signals a clean run that found a regression.
var errRegression = errors.New("benchmark regression")

func main() {
	ctx, stop := resilience.WithSignals(context.Background())
	defer stop()
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, errRegression):
		os.Exit(1)
	case errors.Is(err, flag.ErrHelp):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lpmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out     = fs.String("o", "", "pin the measurement to this JSON file (atomic rewrite)")
		check   = fs.String("check", "", "re-measure and fail on a >20% speedup regression against this pinned file")
		cycles  = fs.Uint64("cycles", 400000, "simulated cycles (functional: rounds) per repetition")
		reps    = fs.Int("reps", 3, "repetitions per engine; the best rate is kept")
		lintDir = fs.String("lintdir", ".", "module to time lpmlint over (empty or no go.mod: skip)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cycles == 0 || *reps <= 0 {
		return fmt.Errorf("lpmbench: -cycles and -reps must be positive")
	}

	doc, err := measure(ctx, *cycles, *reps)
	if err != nil {
		return err
	}
	if err := measureLint(ctx, *lintDir, doc); err != nil {
		return err
	}
	if err := measureServe(ctx, doc, *reps); err != nil {
		return err
	}
	if err := measureOverhead(ctx, doc, *reps); err != nil {
		return err
	}
	if err := measureFleetRecover(ctx, doc, *reps); err != nil {
		return err
	}
	if err := measureTraceReplay(ctx, doc, *reps); err != nil {
		return err
	}
	p := cliutil.NewPrinter(stdout)
	p.Printf("lpmbench: %s on %s/%s (%d cpus), %d cycles x %d reps\n",
		benchWorkload, doc.OS, doc.Arch, doc.CPUs, doc.Cycles, doc.Reps)
	for _, k := range []string{"detailed_stepped", "detailed_fastforward", "functional"} {
		p.Printf("  %-21s %12.0f cycles/sec (%.2fx stepped)\n",
			k, doc.CyclesPerSec[k], doc.CyclesPerSec[k]/doc.CyclesPerSec["detailed_stepped"])
	}
	if doc.LintSeconds != nil {
		p.Printf("  %-21s cold %.2fs, warm %.3fs (%.0fx)\n",
			"lint", doc.LintSeconds["cold"], doc.LintSeconds["warm"],
			doc.LintSeconds["cold"]/doc.LintSeconds["warm"])
	}
	p.Printf("  %-21s %12.6f sec/scrape\n", "serve_fleet_metrics", doc.ServeScrapeSeconds)
	p.Printf("  %-21s %12.6f sec/recover\n", "fleet_recover", doc.FleetRecoverSeconds)
	p.Printf("  %-21s %12.2fx live/replay per instruction\n", "trace_replay", doc.TraceReplaySpeedup)
	if doc.Overhead != nil {
		p.Printf("  overhead: sampler_publish %.4f%%, fabric_telemetry %.4f%%, serve_scrape %.4f%%\n",
			100*doc.Overhead["sampler_publish"], 100*doc.Overhead["fabric_telemetry"],
			100*doc.Overhead["serve_scrape"])
	}
	if err := p.Err(); err != nil {
		return err
	}

	if *check != "" {
		if err := checkAgainst(*check, doc, stdout); err != nil {
			return err
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		return cliutil.AtomicWriteFile(*out, append(data, '\n'), 0o644)
	}
	return nil
}

// measure times the three engines.
func measure(ctx context.Context, cycles uint64, reps int) (*Document, error) {
	doc := &Document{
		Schema:       Schema,
		Commit:       gitCommit(),
		Date:         time.Now().UTC().Format("2006-01-02"),
		Go:           runtime.Version(),
		OS:           runtime.GOOS,
		Arch:         runtime.GOARCH,
		CPUs:         runtime.NumCPU(),
		Workload:     benchWorkload + " on the NUCA standalone-reference platform (64 KB L1)",
		Cycles:       cycles,
		Reps:         reps,
		CyclesPerSec: map[string]float64{},
	}
	engines := []struct {
		name string
		run  func(*chip.Chip, uint64)
		prep func(*chip.Chip)
	}{
		{name: "detailed_stepped",
			prep: func(ch *chip.Chip) { ch.SetFastForward(false) },
			run:  func(ch *chip.Chip, n uint64) { ch.RunCycles(n) }},
		{name: "detailed_fastforward",
			prep: func(ch *chip.Chip) {},
			run:  func(ch *chip.Chip, n uint64) { ch.RunCycles(n) }},
		{name: "functional",
			prep: func(ch *chip.Chip) { ch.SetTier(chip.TierFunctional) },
			run:  func(ch *chip.Chip, n uint64) { _ = ch.RunFunctional(n) }},
	}
	for _, e := range engines {
		best := 0.0
		for r := 0; r < reps; r++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			ch := chip.New(benchConfig())
			ch.SetContext(ctx)
			e.prep(ch)
			start := time.Now()
			e.run(ch, cycles)
			elapsed := time.Since(start).Seconds()
			if err := ch.Err(); err != nil {
				return nil, fmt.Errorf("lpmbench %s: %w", e.name, err)
			}
			if rate := float64(cycles) / elapsed; rate > best {
				best = rate
			}
		}
		doc.CyclesPerSec[e.name] = best
	}
	return doc, nil
}

// measureLint times a full-suite lpmlint pass over the module at dir,
// cold and then warm: the first lint.Run in a process loads with an
// empty content-keyed cache, the second is the no-change re-run. A
// missing go.mod (lpmbench run outside a module) skips silently;
// findings don't fail the benchmark — `make lint` is that gate.
func measureLint(ctx context.Context, dir string, doc *Document) error {
	if dir == "" {
		return nil
	}
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	cold, err := timeLint(dir)
	if err != nil {
		return fmt.Errorf("lpmbench lint: %w", err)
	}
	warm, err := timeLint(dir)
	if err != nil {
		return fmt.Errorf("lpmbench lint: %w", err)
	}
	doc.LintSeconds = map[string]float64{"cold": cold, "warm": warm}
	return nil
}

func timeLint(dir string) (float64, error) {
	start := time.Now()
	if _, err := lint.Run(lint.Config{Dir: dir}); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// benchRunner is the serve-path workload: it publishes a short
// synthetic timeline with an obs snapshot per window, so the fleet
// endpoint has run-labeled series to render, without paying for a
// simulation.
type benchRunner struct{ windows int }

func (b benchRunner) Run(_ context.Context, spec ctrl.RunSpec, pub *ctrl.Publisher) (json.RawMessage, error) {
	reg := obs.NewRegistry()
	windows := reg.Counter("bench.windows")
	pub.SetMeta(spec.TSWindow, false)
	for i := 0; i < b.windows; i++ {
		windows.Inc()
		pub.Window(timeseries.Window{
			Index: i,
			Start: uint64(i) * spec.TSWindow,
			End:   uint64(i+1) * spec.TSWindow,
			Phase: -1,
		})
		pub.Snapshot(reg.Snapshot())
	}
	return json.RawMessage(`{"schema":"` + Schema + `"}`), nil
}

// captureWriter is the minimal ResponseWriter the benchmark scrapes
// into; discard mode keeps only the byte count.
type captureWriter struct {
	h       http.Header
	buf     bytes.Buffer
	n       int
	status  int
	discard bool
}

func (w *captureWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header)
	}
	return w.h
}

func (w *captureWriter) WriteHeader(code int) { w.status = code }

func (w *captureWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += len(b)
	if !w.discard {
		_, _ = w.buf.Write(b)
	}
	return len(b), nil
}

// measureServe times the fleet /metrics scrape path: a control-plane
// registry is loaded with three finished runs (each carrying a
// published obs snapshot and a short timeline) and the aggregated
// endpoint is scraped repeatedly through the API mux. The pinned
// number is the mean seconds per scrape of the best repetition — the
// cost one Prometheus poll imposes on the control plane.
func measureServe(ctx context.Context, doc *Document, reps int) error {
	reg := ctrl.NewRegistry(ctx, ctrl.Config{
		Runner:        benchRunner{windows: 32},
		MaxConcurrent: 3,
		TenantBudget:  3,
	})
	for _, tenant := range []string{"bench-a", "bench-b", "bench-c"} {
		if _, err := reg.Submit(ctrl.RunSpec{Tenant: tenant, Workload: benchWorkload}); err != nil {
			return fmt.Errorf("lpmbench serve: %w", err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := 0
		l := reg.List()
		for _, r := range l.Runs {
			if r.State.Terminal() {
				done++
			}
		}
		if done == len(l.Runs) {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return errors.New("lpmbench serve: runs did not finish")
		}
		time.Sleep(time.Millisecond)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return err
	}
	mux := ctrl.NewAPIMux(reg)
	// Sanity scrape: the fleet document must actually carry the runs.
	probe := &captureWriter{}
	mux.ServeHTTP(probe, req)
	if probe.status != http.StatusOK || !strings.Contains(probe.buf.String(), "lpm_ctrl_runs_done") {
		return fmt.Errorf("lpmbench serve: unexpected fleet scrape (status %d)", probe.status)
	}
	const scrapes = 50
	best := math.Inf(1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < scrapes; i++ {
			mux.ServeHTTP(&captureWriter{discard: true}, req)
		}
		if sec := time.Since(start).Seconds() / scrapes; sec < best {
			best = sec
		}
	}
	doc.ServeScrapeSeconds = best
	return nil
}

// measureOverhead pins the instrumentation tax as fractions (0.01 =
// 1%). Each path is micro-timed deterministically (best of reps
// rounds) — engine re-runs are far too noisy on shared CI boxes to
// resolve sub-percent costs — and amortised over the wall-clock of the
// work it instruments at the measured fast-forward rate:
//
//   - sampler_publish: the per-window control-plane publish sequence
//     (publish to the Live pull path and the Hub SSE push path with a
//     subscriber attached, plus the registry snapshot at its throttled
//     SnapshotEvery cadence), over one default-width window's
//     wall-clock.
//   - fabric_telemetry: the coordinator+worker probe sequence one
//     granule triggers (submit, queue syncs, execute, cache probe,
//     complete), over one bench-sized granule's wall-clock.
//   - serve_scrape: one fleet /metrics scrape against a 1 Hz scrape
//     cadence — the fraction of the interval the control plane spends
//     rendering.
func measureOverhead(ctx context.Context, doc *Document, reps int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	base := doc.CyclesPerSec["detailed_fastforward"]
	if base <= 0 {
		return errors.New("lpmbench overhead: missing fast-forward baseline")
	}

	// The per-window publish sequence, against a chip whose registry
	// carries real counter values.
	ch := chip.New(benchConfig())
	ch.SetContext(ctx)
	ch.EnableObs()
	ch.RunCycles(20000)
	if err := ch.Err(); err != nil {
		return fmt.Errorf("lpmbench overhead: %w", err)
	}
	const pubs = 5000
	perWindow := math.Inf(1)
	for r := 0; r < reps; r++ {
		live := timeseries.NewLive()
		hub := ctrl.NewHub()
		sub := hub.Subscribe(0)
		snap := ctrl.ThrottleSnapshots(func() { live.PublishSnapshot(ch.ObsSnapshot()) })
		start := time.Now()
		for i := 0; i < pubs; i++ {
			w := timeseries.Window{
				Index: i,
				Start: uint64(i) * timeseries.DefaultWidth,
				End:   uint64(i+1) * timeseries.DefaultWidth,
				Phase: -1,
			}
			live.Publish(w)
			snap()
			hub.Publish(w)
		}
		if sec := time.Since(start).Seconds() / pubs; sec < perWindow {
			perWindow = sec
		}
		sub.Close()
	}
	windowSec := float64(timeseries.DefaultWidth) / base

	// The per-granule fabric probe sequence.
	tel := fabric.NewTelemetry(obs.NewRegistry())
	wtel := fabric.NewWorkerTelemetry(obs.NewRegistry())
	const probes = 30000
	perGranule := math.Inf(1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < probes; i++ {
			tel.Submitted()
			tel.SyncQueue(nil, 1)
			wtel.Executed(time.Millisecond, false)
			tel.CacheProbe(i%2 == 0)
			tel.Completed(time.Millisecond)
			tel.SyncQueue(nil, 0)
		}
		if sec := time.Since(start).Seconds() / probes; sec < perGranule {
			perGranule = sec
		}
	}
	granuleSec := float64(doc.Cycles) / base

	doc.Overhead = map[string]float64{
		"sampler_publish":  perWindow / windowSec,
		"fabric_telemetry": perGranule / granuleSec,
		"serve_scrape":     doc.ServeScrapeSeconds / 1.0,
	}
	return nil
}

// replayInstrs is how much of each built-in stream the trace replay
// measurement draws; all of it fits the process arena.
const replayInstrs = 100_000

// measureTraceReplay times each built-in profile's first replayInstrs
// instructions drawn live and replayed from the process trace arena
// (recorded by a first, untimed pass), and pins the ratio of the
// best-of-reps totals.
func measureTraceReplay(ctx context.Context, doc *Document, reps int) error {
	var sink uint64
	drain := func(g trace.Generator) time.Duration {
		start := time.Now()
		for i := 0; i < replayInstrs; i++ {
			sink += g.Next().Addr
		}
		return time.Since(start)
	}
	bestLive, bestReplay := math.Inf(1), math.Inf(1)
	for r := 0; r < reps; r++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		var live, replay time.Duration
		for _, name := range trace.ProfileNames() {
			prof := trace.MustProfile(name)
			live += drain(trace.NewSynthetic(prof))
			c := trace.Open(prof)
			drain(c)
			c.Reset()
			replay += drain(c)
			c.Release()
		}
		bestLive = math.Min(bestLive, live.Seconds())
		bestReplay = math.Min(bestReplay, replay.Seconds())
	}
	if st := trace.ProcessArenaStats(); st.Seals > 0 {
		return fmt.Errorf("lpmbench trace replay: %d streams outgrew the arena (%+v)", st.Seals, st)
	}
	if sink == 0 {
		return errors.New("lpmbench trace replay: empty streams")
	}
	doc.TraceReplaySpeedup = bestLive / bestReplay
	return nil
}

// recoverKind is the trivial granule the recovery benchmark round-trips
// through the fabric: the cost under measurement is the resume path,
// not the executor.
const recoverKind = "bench.recover"

var registerRecoverKind = sync.OnceFunc(func() {
	fabric.RegisterKind(recoverKind, func(_ context.Context, spec json.RawMessage) (json.RawMessage, error) {
		var in struct {
			X uint64 `json:"x"`
		}
		if err := json.Unmarshal(spec, &in); err != nil {
			return nil, err
		}
		return json.Marshal(struct {
			Y uint64 `json:"y"`
		}{2 * in.X})
	})
})

// measureFleetRecover pins the fleet's crash-recovery latency: a
// journaling coordinator is killed mid-sweep and the clock runs from
// the kill to the first granule completion on the successor — journal
// replay, listener re-bind, worker redial, handshake, and one granule
// round trip. Best of reps, like the engine rates.
func measureFleetRecover(ctx context.Context, doc *Document, reps int) error {
	registerRecoverKind()
	best := math.Inf(1)
	for r := 0; r < reps; r++ {
		sec, err := timeFleetRecover(ctx, uint64(r))
		if err != nil {
			return fmt.Errorf("lpmbench fleet recover: %w", err)
		}
		if sec < best {
			best = sec
		}
	}
	doc.FleetRecoverSeconds = best
	return nil
}

func timeFleetRecover(ctx context.Context, rep uint64) (float64, error) {
	dir, err := os.MkdirTemp("", "lpmbench-fleet-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	opts := fabric.Options{
		InFlight:      2,
		StraggleAfter: -1,
		JournalPath:   filepath.Join(dir, "journal.lpmckpt"),
		Seed:          1,
	}

	c1, err := fabric.Listen("127.0.0.1:0", opts)
	if err != nil {
		return 0, err
	}
	wctx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	var workers sync.WaitGroup
	for i := 0; i < 2; i++ {
		workers.Add(1)
		go func(i int) {
			defer workers.Done()
			_ = fabric.RunWorker(wctx, c1.Addr(), fabric.WorkerOptions{
				Name: fmt.Sprintf("bench-%d", i), Seed: uint64(i + 1),
			})
		}(i)
	}
	if err := c1.WaitWorkers(ctx, 2); err != nil {
		_ = c1.Close()
		return 0, err
	}

	// A sweep that is genuinely mid-flight when the coordinator dies:
	// concurrent submits, killed once a few results have landed and
	// been journaled.
	sctx, stopSubmits := context.WithCancel(ctx)
	defer stopSubmits()
	var submits sync.WaitGroup
	const granules = 16
	for i := 0; i < granules; i++ {
		submits.Add(1)
		go func(i int) {
			defer submits.Done()
			spec, _ := json.Marshal(struct {
				X uint64 `json:"x"`
			}{uint64(i)})
			key := fmt.Sprintf("%s|%d|%d", recoverKind, rep, i)
			_, _ = c1.Submit(sctx, recoverKind, key, spec)
		}(i)
	}
	deadline := time.Now().Add(30 * time.Second)
	for c1.Stats().Completed < 4 {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if time.Now().After(deadline) {
			return 0, errors.New("sweep never progressed")
		}
		time.Sleep(time.Millisecond)
	}

	// The kill. Everything from here to the successor's first completed
	// granule is recovery latency.
	start := time.Now()
	stopSubmits()
	stopWorkers()
	_ = c1.Close()
	submits.Wait()
	workers.Wait()

	c2, err := fabric.Listen("127.0.0.1:0", opts)
	if err != nil {
		return 0, err
	}
	defer c2.Close()
	w2ctx, stopW2 := context.WithCancel(ctx)
	defer stopW2()
	var resumed sync.WaitGroup
	resumed.Add(1)
	go func() {
		defer resumed.Done()
		_ = fabric.RunWorker(w2ctx, c2.Addr(), fabric.WorkerOptions{
			Name: "bench-resume", Seed: 9, DialRetry: 5 * time.Second,
		})
	}()
	defer resumed.Wait()
	spec, _ := json.Marshal(struct {
		X uint64 `json:"x"`
	}{granules})
	if _, err := c2.Submit(ctx, recoverKind, fmt.Sprintf("%s|%d|probe", recoverKind, rep), spec); err != nil {
		return 0, err
	}
	sec := time.Since(start).Seconds()
	if c2.Resumed() == nil {
		return 0, errors.New("successor coordinator did not replay the journal")
	}
	stopW2()
	return sec, nil
}

// checkAgainst compares fresh speedup ratios with the pinned document.
func checkAgainst(path string, fresh *Document, stdout io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var pinned Document
	if err := json.Unmarshal(data, &pinned); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if pinned.Schema != Schema {
		return fmt.Errorf("%s: schema %q, want %q", path, pinned.Schema, Schema)
	}
	pinnedStep := pinned.CyclesPerSec["detailed_stepped"]
	freshStep := fresh.CyclesPerSec["detailed_stepped"]
	if pinnedStep <= 0 || freshStep <= 0 {
		return fmt.Errorf("%s: missing detailed_stepped baseline", path)
	}
	p := cliutil.NewPrinter(stdout)
	failed := false
	for _, k := range []string{"detailed_fastforward", "functional"} {
		pr := pinned.CyclesPerSec[k] / pinnedStep
		fr := fresh.CyclesPerSec[k] / freshStep
		verdict := "ok"
		if fr < 0.8*pr {
			verdict = "REGRESSION"
			failed = true
		}
		p.Printf("check %-21s pinned %.2fx  fresh %.2fx  %s\n", k, pr, fr, verdict)
	}
	if pr := pinned.TraceReplaySpeedup; pr > 0 {
		fr := fresh.TraceReplaySpeedup
		verdict := "ok"
		if fr < 0.8*pr {
			verdict = "REGRESSION"
			failed = true
		}
		p.Printf("check %-21s pinned %.2fx  fresh %.2fx  %s\n", "trace_replay", pr, fr, verdict)
	}
	// Recovery latency gates coarsely: absolute seconds vary machine to
	// machine, so the gate only trips when a fresh recovery takes more
	// than 3x the pinned time plus 250ms of scheduler slack — wide
	// enough for a slow CI box, tight enough to catch an accidental
	// sleep or an un-journaled state rebuild on the resume path.
	if pinned.FleetRecoverSeconds > 0 && fresh.FleetRecoverSeconds > 0 {
		verdict := "ok"
		if fresh.FleetRecoverSeconds > 3*pinned.FleetRecoverSeconds+0.25 {
			verdict = "REGRESSION"
			failed = true
		}
		p.Printf("check %-21s pinned %.4fs  fresh %.4fs  %s\n",
			"fleet_recover", pinned.FleetRecoverSeconds, fresh.FleetRecoverSeconds, verdict)
	}
	if err := p.Err(); err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("%w: engine speedup, trace replay or fleet recovery regressed against %s", errRegression, path)
	}
	return nil
}

// gitCommit stamps the pinned file with the working tree's HEAD; the
// benchmark itself never depends on it.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
