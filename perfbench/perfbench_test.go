package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"lpm"
	"lpm/internal/parallel"
	"lpm/internal/sim/chip"
	"lpm/internal/trace"
)

// The tests run from perfbench/, while the benchmark reads goldens
// relative to the repository root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so tailOf must sort
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for n := 0; n <= 10; n++ {
		if _, _, ok := tailOf(seq(n)); ok {
			t.Fatalf("n=%d: a tail needs at least 11 samples", n)
		}
	}
	for _, tc := range []struct {
		n          int
		want, rank float64
	}{
		{11, 1, 100.0 / 11}, // the minimum: ten samples above the smallest
		{12, 2, 100 * 2.0 / 12},
		{20, 10, 50},
		{64, 54, 100 * 54.0 / 64},
		{1000, 990, 99},
	} {
		v, rank, ok := tailOf(seq(tc.n))
		if !ok || v != tc.want || rank != tc.rank {
			t.Errorf("n=%d: tail %v at p%v (ok=%v), want %v at p%v", tc.n, v, rank, ok, tc.want, tc.rank)
		}
		above := 0
		for _, x := range seq(tc.n) {
			if x > v {
				above++
			}
		}
		if above != 10 {
			t.Errorf("n=%d: %d samples beyond the tail, want exactly 10", tc.n, above)
		}
	}
	if d := summarize([]float64{3, 1, 2, 4}); d.P50 != 2.5 || d.N != 4 || d.Rank != 0 {
		t.Errorf("summarize small: %+v", d)
	}
}

func TestDefaultSeedKeepsBuiltInInputs(t *testing.T) {
	names := trace.ProfileNames()
	if got := workloadOrder(0); !equalStrings(got, names) {
		t.Fatalf("seed 0 order %v, want sorted %v", got, names)
	}
	for _, n := range names {
		a, b := trace.NewSynthetic(seededProfile(n, 0)), trace.NewSynthetic(trace.MustProfile(n))
		for i := 0; i < 5000; i++ {
			if a.Next() != b.Next() {
				t.Fatalf("%s: seed 0 stream differs from the built-in at instruction %d", n, i)
			}
		}
	}
	for _, s := range profileSpecs(0) {
		if s.Profile != trace.MustProfile(s.Profile.Name) {
			t.Fatalf("seed 0 spec profile %+v is not the built-in", s.Profile)
		}
	}
	// Other seeds change the streams and permute the order, and keep
	// every name.
	o := workloadOrder(7)
	if equalStrings(o, names) {
		t.Fatal("seed 7 left the workload order unchanged")
	}
	sorted := append([]string(nil), o...)
	sort.Strings(sorted)
	if !equalStrings(sorted, names) {
		t.Fatalf("seed 7 order %v is not a permutation", o)
	}
	a, b := trace.NewSynthetic(seededProfile("429.mcf", 7)), trace.NewSynthetic(trace.MustProfile("429.mcf"))
	same := true
	for i := 0; i < 100; i++ {
		same = same && a.Next() == b.Next()
	}
	if same {
		t.Fatal("seed 7 did not change the 429.mcf stream")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDigestStableAcrossRuns runs one workload twice from a cold memo at
// a non-default seed: digests and every operation's output must agree.
func TestDigestStableAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the dse-walk workload twice")
	}
	ctx := context.Background()
	var digests []string
	r, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	ck := &checker{refs: r, seed: 5}
	for i := 0; i < 2; i++ {
		parallel.ResetAllMemos()
		p := dseWalk(ctx, newEnv(5))
		if n := ck.check(p); n != 0 {
			t.Fatalf("run %d: %d failed operations: %v", i, n, ck.notes)
		}
		digests = append(digests, digest(p.doc))
	}
	if digests[0] != digests[1] {
		t.Fatalf("digest drifted between runs: %s vs %s", digests[0], digests[1])
	}
	if digest(map[string]int{"b": 2, "a": 1}) != digest(map[string]int{"a": 1, "b": 2}) {
		t.Fatal("digest depends on map insertion order")
	}
}

// TestDefaultSeedMatchesLibrary ties the benchmark's workloads to the
// library's own experiment drivers at quick scale: Table I must equal
// lpm.Table1, the walks on stream 0 lpm.CaseStudyI and the Fig. 8 rows
// lpm.Fig8, and the documents must hash to the pinned digests.
func TestDefaultSeedMatchesLibrary(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the dse-walk and nuca16-sched workloads and their library drivers")
	}
	ctx := context.Background()
	s := lpm.QuickScale()
	r, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	pins := r.pinned[0]

	parallel.ResetAllMemos()
	p := dseWalk(ctx, newEnv(0))
	doc := p.doc.(dseDoc)
	if !bytes.Equal(encode(doc.Table1), encode(lpm.Table1(s))) {
		t.Error("dse-walk Table I differs from lpm.Table1")
	}
	for i, g := range []lpm.Grain{lpm.CoarseGrain, lpm.FineGrain} {
		if !bytes.Equal(encode(doc.CaseStudyI[i]), encode(lpm.CaseStudyI(g, s))) {
			t.Errorf("dse-walk %s walk differs from lpm.CaseStudyI", g)
		}
	}
	if got := digest(p.parts["casestudy1"]); got != pins["casestudy1"] {
		t.Errorf("casestudy1 digest %s, pinned %s", got, pins["casestudy1"])
	}

	parallel.ResetAllMemos()
	p = nuca16Sched(ctx, newEnv(0))
	nd := p.doc.(nucaDoc)
	want, err := lpm.Fig8(s)
	if err != nil {
		t.Fatal(err)
	}
	var got []lpm.Fig8Row
	for _, ev := range nd.Evaluations {
		got = append(got, lpm.Fig8Row{Scheduler: ev.Scheduler, Hsp: ev.Hsp, PaperHsp: paperFig8[ev.Scheduler]})
	}
	if !bytes.Equal(encode(got), encode(want)) {
		t.Errorf("nuca16-sched rows %+v differ from lpm.Fig8 %+v", got, want)
	}
	if got := digest(p.parts["fig8"]); got != pins["fig8"] {
		t.Errorf("fig8 digest %s, pinned %s", got, pins["fig8"])
	}
}

var update = flag.Bool("update", false, "rewrite pinned_digests.json from the current library")

// partDigests runs every in-process workload at seed from a cold memo
// and returns each sub-document's digest by part name.
func partDigests(t *testing.T, seed uint64) map[string]string {
	ctx := context.Background()
	out := map[string]string{}
	for _, w := range []func(context.Context, *env) *pass{profileSweep, dseWalk, nuca16Sched} {
		parallel.ResetAllMemos()
		p := w(ctx, newEnv(seed))
		for _, o := range p.ops {
			if o.err != nil {
				t.Fatalf("seed %d: %s: %v", seed, o.key, o.err)
			}
		}
		for part, doc := range p.parts {
			out[part] = digest(doc)
		}
	}
	return out
}

// TestPinnedDigests recomputes one non-default seed's sub-document
// digests and compares them with the pinned ones; with -update it
// rewrites the digests of every pinned seed instead.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every in-process workload")
	}
	if *update {
		all := map[uint64]map[string]string{}
		for seed := uint64(0); seed < pinnedSeeds; seed++ {
			all[seed] = partDigests(t, seed)
		}
		b, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("perfbench", "pinned_digests.json"), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	r, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	if got := partDigests(t, 1); !maps.Equal(got, r.pinned[1]) {
		t.Fatalf("seed 1 digests %v, pinned %v", got, r.pinned[1])
	}
}

func TestBucketOfByPackage(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"lpm/internal/sim/cache.(*Cache).Access", "lpm/internal/sim/chip.(*Chip).Tick"}, "cache"},
		// Standard-library and stats frames belong to their caller.
		{[]string{"math.Log", "lpm/internal/stats.(*GeomSampler).Sample", "lpm/internal/trace.(*Synthetic).Next", "lpm/internal/sim/cpu.(*Core).Tick"}, "trace"},
		{[]string{"runtime.mallocgc", "lpm/internal/sim/dram.(*DRAM).Request"}, "dram"},
		{[]string{"lpm/internal/sim/cpu.(*Core).Tick", "lpm/internal/sim/chip.(*Chip).Tick"}, "cpu"},
		{[]string{"lpm/internal/analyzer.(*Analyzer).Tick"}, "analyzer"},
		{[]string{"lpm/internal/sim/chip.(*Chip).tryFastForward"}, "chip"},
		{[]string{"lpm/internal/parallel.MapPoolResults[...].func2"}, "parallel"},
		// The wire path is fabric time, wherever the caller sits ...
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Write", "net.(*conn).Write", "lpm/internal/fabric.(*Coordinator).writeLoop"}, "fabric"},
		{[]string{"encoding/json.Unmarshal", "lpm/internal/sched.init.0.func1", "lpm/internal/fabric.RunWorker"}, "fabric"},
		{[]string{"lpm/internal/resilience/fleet.(*HealthTracker).Tick"}, "fabric"},
		// ... except the benchmark's own encoding.
		{[]string{"encoding/json.Marshal", "main.canon"}, "other"},
		// GC anywhere in the stack is GC.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "lpm/internal/sim/cache.(*Cache).Access"}, "gc"},
		// Drivers and unattributed runtime work are other.
		{[]string{"lpm/internal/sched.(*ProfileTable).RequiredSize"}, "other"},
		{[]string{"runtime.futex", "runtime.findRunnable"}, "other"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// TestProfileParseAndShares records a real CPU profile of a simulation,
// parses it, and checks the shares are a partition of the samples.
func TestProfileParseAndShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		ch := chip.New(chip.NUCASingle(trace.NewSynthetic(trace.MustProfile("429.mcf")), 16*chip.KB))
		ch.SetFastForward(false)
		ch.RunCycles(20000)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares, total := profShares(samples)
	if total == 0 {
		t.Skip("profiler recorded no samples")
	}
	sum := 0.0
	for _, b := range profBuckets {
		sum += shares[b]
	}
	if sum < 99.999 || sum > 100.001 {
		t.Fatalf("shares sum to %v%%, want 100%%", sum)
	}
	if shares["cache"]+shares["cpu"]+shares["trace"]+shares["chip"] == 0 {
		t.Fatalf("no samples attributed to the simulator layers: %v", shares)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage parsed as a profile")
	}
}

func TestFabricRigTearsDown(t *testing.T) {
	ctx := context.Background()
	rig, err := startFabric(ctx, 1, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Dir(filepath.Join(rig.dir, "x"))); err != nil {
		t.Fatalf("journal directory missing: %v", err)
	}
	if err := rig.close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(rig.dir); !os.IsNotExist(err) {
		t.Fatalf("journal directory %s left behind", rig.dir)
	}
	if _, err := os.Stat(tmpRoot); !os.IsNotExist(err) {
		t.Fatalf("%s left behind", tmpRoot)
	}
}

// TestLayerDrivesFinish runs every isolated drive once on a workload's
// rigs; the drives abort instead of hanging when a layer stalls.
func TestLayerDrivesFinish(t *testing.T) {
	w, err := workloadByName("dse-walk")
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range layerCosts(w, newEnv(3)) {
		if !(v > 0) {
			t.Errorf("%s = %v, want a positive cost", name, v)
		}
	}
}
