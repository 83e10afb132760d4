package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lpm/internal/fabric"
	"lpm/internal/obs"
)

// tmpRoot holds the benchmark's temporary files (the fabric journal),
// inside the working directory; every pass removes what it made.
const tmpRoot = ".perfbench_tmp"

// fabricRig is one pass's loopback fabric: a coordinator with default
// options (what -shard users get) and workers with one slot each.
type fabricRig struct {
	lf    *fabric.LocalFabric
	wregs []*obs.Registry // per-worker telemetry, traced runs only
	dir   string          // journal directory, journaled passes only
}

// startFabric starts the coordinator, joins workers to it and activates
// it process-wide. Traced rigs give each worker its own telemetry
// registry so per-worker execution counts can be read back; journaled
// rigs append the coordinator's scheduling journal under tmpRoot.
func startFabric(ctx context.Context, workers int, traced, journal bool) (*fabricRig, error) {
	r := &fabricRig{}
	var opts fabric.Options
	if journal {
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(tmpRoot, "journal-")
		if err != nil {
			return nil, err
		}
		r.dir = dir
		opts.JournalPath = filepath.Join(dir, "fabric.journal")
	}
	lf, err := fabric.StartLocal(0, opts, fabric.WorkerOptions{})
	if err != nil {
		r.removeDir()
		return nil, err
	}
	r.lf = lf
	for i := 0; i < workers; i++ {
		var wo fabric.WorkerOptions
		if traced {
			reg := obs.NewRegistry()
			r.wregs = append(r.wregs, reg)
			wo.Obs = fabric.NewWorkerTelemetry(reg)
		}
		lf.AddWorker(wo)
	}
	jctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := lf.C.WaitWorkers(jctx, workers); err != nil {
		return nil, errors.Join(err, r.close())
	}
	return r, nil
}

// close deactivates and stops the fabric, reaps its workers and removes
// the journal directory.
func (r *fabricRig) close() error {
	err := r.lf.Close()
	r.removeDir()
	return err
}

func (r *fabricRig) removeDir() {
	if r.dir != "" {
		_ = os.RemoveAll(r.dir)
		_ = os.Remove(tmpRoot) // only succeeds once empty
	}
}

// workerExec reads each worker's executed-granule count and total
// execution seconds from its telemetry registry.
func (r *fabricRig) workerExec() (counts []float64, seconds float64, err error) {
	for i, reg := range r.wregs {
		snap := reg.Snapshot()
		n, ok := snap.Metric("worker.granules_executed")
		h, ok2 := snap.Metric("worker.granule_seconds")
		if !ok || !ok2 || h.Hist == nil {
			return nil, 0, fmt.Errorf("worker %d telemetry missing", i)
		}
		counts = append(counts, float64(n.Count))
		seconds += h.Hist.Mean * float64(h.Hist.Count)
	}
	return counts, seconds, nil
}
