package main

// A minimal reader for the gzipped protobuf CPU profiles runtime/pprof
// writes, just enough to attribute samples to this repository's layers.
// Only the fields the bucketing needs are decoded: samples (location ids
// and values), locations (their line entries' function ids), functions
// (name string index) and the string table.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profSample is one stack, leaf first, with its sample count.
type profSample struct {
	frames []string
	count  int64
}

// parseProfile decodes a runtime/pprof CPU profile into stacks of
// function names. Inlined frames are expanded innermost first.
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbVarints(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbVarints(w, v, b, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fid uint64) string {
		if i, ok := funcs[fid]; ok && i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return "?"
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{count: 1}
		if len(s.vals) > 0 {
			ps.count = s.vals[0]
		}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				ps.frames = append(ps.frames, name(f))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errPB = errors.New("pprof: malformed protobuf")

// pbFields walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire type 0) or payload (wire type 2).
func pbFields(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errPB
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errPB
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errPB
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errPB
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errPB
			}
			b = b[4:]
		default:
			return errPB
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// pbVarints yields a repeated varint field in either encoding: one
// unpacked value (wire type 0) or a packed run (wire type 2).
func pbVarints(wire int, v uint64, payload []byte, yield func(uint64)) error {
	if wire == 0 {
		yield(v)
		return nil
	}
	for len(payload) > 0 {
		x, n := pbVarint(payload)
		if n == 0 {
			return errPB
		}
		yield(x)
		payload = payload[n:]
	}
	return nil
}

// pbVarint decodes one base-128 varint; n is 0 on malformed input.
func pbVarint(b []byte) (v uint64, n int) {
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// profBuckets are the prof.* shares, in print order; "other" takes the
// samples no layer claims (the drivers, the benchmark, the scheduler).
var profBuckets = []string{"trace", "cpu", "cache", "dram", "analyzer", "chip", "parallel", "fabric", "gc", "other"}

// layerPackages maps this repository's packages to their bucket.
// lpm/internal/stats is absent on purpose: its samplers are the trace
// generator's arithmetic, so their time goes to the caller.
var layerPackages = map[string]string{
	"lpm/internal/trace":            "trace",
	"lpm/internal/sim/cpu":          "cpu",
	"lpm/internal/sim/cache":        "cache",
	"lpm/internal/sim/dram":         "dram",
	"lpm/internal/analyzer":         "analyzer",
	"lpm/internal/sim/chip":         "chip",
	"lpm/internal/parallel":         "parallel",
	"lpm/internal/fabric":           "fabric",
	"lpm/internal/resilience/fleet": "fabric",
}

// wirePackages are the standard-library packages the fabric's wire path
// runs in; a sample that reaches one before any layer frame is fabric
// time.
var wirePackages = map[string]bool{
	"encoding/json": true, "net": true, "internal/poll": true, "syscall": true,
	"hash/crc64": true, "bufio": true, "encoding/binary": true,
}

// gcRoots are runtime frames under which all work is garbage collection.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.gcAssistAlloc1": true,
	"runtime.bgsweep": true, "runtime.bgscavenge": true, "runtime.gcStart": true,
	"runtime.gcMarkDone": true, "runtime.gcMarkTermination": true, "runtime.GC": true,
}

// funcPackage extracts the import path from a fully qualified function
// name such as "lpm/internal/sim/cache.(*Cache).Access".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// ownCode reports whether pkg is this repository's code or the
// benchmark's own (package main).
func ownCode(pkg string) bool {
	return pkg == "main" || pkg == "lpm" || strings.HasPrefix(pkg, "lpm/")
}

// bucketOf attributes one stack (leaf first). GC work goes to gc
// wherever it sits. Otherwise the stack is walked from the leaf: standard
// library frames are skipped (their time is the caller's), and the first
// repository frame decides — a layer's bucket, or other for the drivers
// and the benchmark. A wire-package frame met on the way makes the
// sample fabric time, unless the benchmark's own code is the caller.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if gcRoots[f] {
			return "gc"
		}
	}
	wire := false
	for _, f := range frames {
		pkg := funcPackage(f)
		wire = wire || wirePackages[pkg]
		if !ownCode(pkg) || pkg == "lpm/internal/stats" {
			continue
		}
		switch b, ok := layerPackages[pkg]; {
		case pkg == "main":
			return "other"
		case wire:
			return "fabric"
		case ok:
			return b
		default:
			return "other"
		}
	}
	if wire {
		return "fabric"
	}
	return "other"
}

// profShares buckets samples and returns each bucket's share of the
// total in percent, plus the total sample count (the shares' base).
func profShares(samples []profSample) (map[string]float64, int64) {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		counts[bucketOf(s.frames)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(profBuckets))
	for _, b := range profBuckets {
		shares[b] = 100 * ratio(float64(counts[b]), float64(total))
	}
	return shares, total
}
