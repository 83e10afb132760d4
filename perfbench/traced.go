package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// tracedRun gathers what the traced run measured.
type tracedRun struct {
	base, traced, journaled []*passRun
	sp                      *spans
	hits, misses            int64
	rt0, rt1                rtSample
	counts                  simCount
	shares                  map[string]float64
	samples                 int64
}

// granuleSpans are the spans that count as pool or fabric work for
// parallel.busy_frac; the *_cpu entries are the process CPU seconds of
// phases whose granules the library fans out out of the benchmark's
// sight.
var granuleSpans = []string{"sched.profile_sim", "fabric.submit", "explore.eval", "sched.evaluate", "sched.table_cpu", "sched.alone_cpu"}

// metrics derives every per-layer metric of the traced passes.
func (t *tracedRun) metrics(cfg config) []metric {
	var ms []metric
	add := func(name, unit string, v float64, n int, note string) {
		ms = append(ms, metric{name: name, unit: unit, value: v, n: n, note: note})
	}
	// addDist adds name.p50 and name.tail from spans.
	addDist := func(name, span string, withTail bool) {
		d := summarize(t.sp.of(span))
		add(name+".p50", "s", d.P50, d.N, "median of "+span+" spans")
		if withTail {
			note := fmt.Sprintf("p%.1f of %s spans", d.Rank, span)
			if d.Rank == 0 {
				note = fmt.Sprintf("n/a: %d %s spans, a tail needs >=11", d.N, span)
			}
			add(name+".tail", "s", d.Tail, d.N, note)
		}
	}
	nT := len(t.traced)
	perPass := func(span string) float64 { return t.sp.sum(span) / float64(nT) }
	tw := walls(t.traced)
	twSum := 0.0
	for _, w := range tw {
		twSum += w
	}

	lookups := t.hits + t.misses
	add("parallel.memo_hits", "count", float64(t.hits), 1, "lpm.SimCacheStats after the last traced pass")
	add("parallel.memo_misses", "count", float64(t.misses), 1, "lpm.SimCacheStats after the last traced pass")
	add("parallel.memo_hit_ratio", "ratio", ratio(float64(t.hits), float64(lookups)), int(lookups), "hits / lookups")
	busy := 0.0
	for _, s := range granuleSpans {
		busy += t.sp.sum(s)
	}
	add("parallel.busy_frac", "ratio", ratio(busy, twSum*float64(cfg.workers)), nT,
		fmt.Sprintf("granule spans / (wall x %d workers)", cfg.workers))

	add("explore.evals", "count", float64(len(t.sp.of("explore.eval")))/float64(nT), nT, "HardwareTarget.OnEvaluate calls per pass")
	addDist("explore.eval_s", "explore.eval", true)
	last := t.traced[nT-1].p
	add("core.steps", "count", float64(last.steps), 1, "Fig. 3 iterations over every walk of a pass")
	add("core.self_s", "s", perPass("core.walk")-perPass("explore.walk_eval"), nT, "walk time minus its evaluation spans, per pass")

	addDist("sched.profile_sim_s", "sched.profile_sim", true)
	add("sched.table_s", "s", perPass("sched.table"), nT, "BuildProfileTable span per pass")
	add("sched.alone_s", "s", perPass("sched.alone"), nT, "AloneIPCs span per pass")
	addDist("sched.evaluate_s", "sched.evaluate", false)

	c := t.counts
	sims := c.Sims
	add("sim.cycles", "count", float64(c.Cycles), sims, "measured-window chip cycles, summed over the replayed simulations")
	add("sim.instructions", "count", float64(c.Instructions), sims, "instructions retired in measured windows")
	add("sim.l1_accesses", "count", float64(c.L1Accesses), sims, "")
	add("sim.l1_miss_ratio", "ratio", ratio(float64(c.L1Misses), float64(c.L1Accesses)), sims, "")
	add("sim.l2_accesses", "count", float64(c.L2Accesses), sims, "")
	add("sim.l2_miss_ratio", "ratio", ratio(float64(c.L2Misses), float64(c.L2Accesses)), sims, "")
	add("sim.mshr_waits", "count", float64(c.MSHRWaits), sims, "L1 plus L2")
	add("sim.dram_reads", "count", float64(c.DRAMReads), sims, "")
	add("sim.dram_row_hit_ratio", "ratio", ratio(float64(c.RowHits), float64(c.RowAll)), sims, "")
	add("sim.dram_avg_read_latency", "cycles", ratio(float64(c.LatencySum), float64(c.DRAMReads)), sims, "")
	add("sim.dram_bus_util", "ratio", ratio(float64(c.BusBusy), float64(c.BusSlots)), sims, "busy bus cycles / (window cycles x channels)")
	add("sim.host_ns_per_cycle", "ns/cycle", 1e9*ratio(c.HostSeconds, float64(c.AllCycles)), sims, "replay host time per simulated cycle, warm-up included")

	for _, b := range profBuckets {
		add("prof."+b+"_pct", "%", t.shares[b], int(t.samples), fmt.Sprintf("share of %d CPU-profile samples", t.samples))
	}

	submit := t.sp.of("fabric.submit")
	addDist("fabric.submit_s", "fabric.submit", true)
	var counts []float64
	execSec := 0.0
	for _, r := range t.traced {
		for i, n := range r.execCounts {
			if i >= len(counts) {
				counts = append(counts, 0)
			}
			counts[i] += n
		}
		execSec += r.execSec
	}
	execs, minShare := 0.0, 0.0
	for i, n := range counts {
		execs += n
		if i == 0 || n < minShare {
			minShare = n
		}
	}
	overhead := 0.0
	if len(submit) > 0 {
		overhead = median(submit) - ratio(execSec, execs)
	}
	add("fabric.overhead_s.p50", "s", overhead, len(submit), "submit span median minus mean worker.granule_seconds")
	add("fabric.worker_exec_share.min", "ratio", ratio(minShare, execs), int(execs),
		fmt.Sprintf("least-loaded worker's share of executed granules; per worker %v", counts))
	var diffs []float64
	for i, j := range t.journaled {
		diffs = append(diffs, j.p.wall.Seconds()-t.base[i].p.wall.Seconds())
	}
	add("fabric.journal_cost_s", "s", median(diffs), len(diffs), "median over pairs of journaled minus the plain pass before it")

	cpu := t.rt1.cpu - t.rt0.cpu
	add("runtime.cpu_util", "ratio", ratio(cpu, twSum*float64(runtime.GOMAXPROCS(0))), nT, "process CPU s / (wall x GOMAXPROCS)")
	add("runtime.alloc_mb", "MB", (t.rt1.allocBytes-t.rt0.allocBytes)/float64(nT)/(1<<20), nT, "heap allocated per pass")
	add("runtime.gc_cpu_pct", "%", 100*ratio(t.rt1.gcCPU-t.rt0.gcCPU, cpu), nT, "GC CPU s / process CPU s")
	return ms
}

// layerCostMetrics runs the engine timings and isolated layer drives.
func layerCostMetrics(cfg config, e *env) []metric {
	var ms []metric
	add := func(vals map[string]float64, unit func(string) string, note string) {
		for _, k := range sortedKeys(vals) {
			ms = append(ms, metric{name: k, unit: unit(k), value: vals[k], n: 3, note: note})
		}
	}
	add(chipRates(e), func(k string) string {
		switch {
		case strings.HasSuffix(k, "speedup"):
			return "x"
		case strings.Contains(k, "rounds"):
			return "rounds/s"
		}
		return "cycles/s"
	}, "median of 3 fresh chips")
	add(layerCosts(cfg.w, e), func(k string) string { return "ns/" + k[strings.LastIndex(k, "_")+1:] },
		"isolated drive over the workload's profiles, median of 3")
	return ms
}

// table renders the "where the time goes" row of this workload: CPU
// profile shares per layer, with the traced wall time beside them.
func (t *tracedRun) table(cfg config) []string {
	head := "| workload | wall_s |"
	sep := "|---|---|"
	row := fmt.Sprintf("| %s | %.3f |", cfg.w.name, median(walls(t.traced)))
	for _, b := range profBuckets {
		head += " " + b + " |"
		sep += "---|"
		row += fmt.Sprintf(" %.1f%% |", t.shares[b])
	}
	head += " samples |"
	sep += "---|"
	row += fmt.Sprintf(" %d |", t.samples)
	return []string{head, sep, row}
}

// gitCommit names the checked-out commit, or "none" outside a git
// checkout.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}
