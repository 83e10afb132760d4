package main

import (
	"errors"
	"os"
	"runtime/metrics"
	"syscall"
)

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's resident-set high-water mark for
// this process (Linux: writing 5 to /proc/self/clear_refs), so the next
// peakRSSMB covers only what follows. It reports whether the reset took;
// without it peakRSSMB stays the peak since process start.
func resetPeakRSS() bool {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	_, werr := f.Write([]byte("5"))
	return errors.Join(werr, f.Close()) == nil
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuStart and cpuEnd bracket a phase whose granules the library fans
// out internally: the phase's process CPU seconds stand in for the
// granule spans the benchmark cannot see. No-ops when untraced.
func (e *env) cpuStart() float64 {
	if e.sp == nil {
		return 0
	}
	return cpuSeconds()
}

func (e *env) cpuEnd(name string, c0 float64) {
	if e.sp != nil {
		e.sp.add(name, cpuSeconds()-c0)
	}
}

// rtSample reads the Go runtime's allocation and GC CPU counters.
type rtSample struct {
	allocBytes, gcCPU, cpu float64
}

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: v(0), gcCPU: v(1), cpu: cpuSeconds()}
}
