package trace

import (
	"lpm/internal/stats"
)

// Synthetic generates a deterministic instruction stream from a Profile.
// It implements Generator. Create with NewSynthetic.
//
// A Synthetic holds its whole state by value (the RNG included), so a
// plain struct copy is an independent generator that continues the same
// stream from the same point.
type Synthetic struct {
	prof Profile
	rng  stats.RNG

	// Samplers precomputed from the profile's constants (NewSynthetic),
	// so the per-instruction path does no log/pow over fixed parameters.
	// Each is stream-identical to the direct RNG call it replaces.
	execLatG stats.GeomSampler // Geometric(1/ExecLat)
	depDistG stats.GeomSampler // Geometric(1/DepDist)
	hotZipf  stats.ZipfSampler // Zipf(hot blocks, 0.6)
	hotBlks  int

	idx        uint64 // dynamic instruction index
	seqCursor  uint64 // sequential sweep position
	lastLoadAt uint64 // index of the most recent load (for pointer chasing)
	haveLoad   bool
	phaseLeft  int  // instructions left in the current burst/gap phase
	inBurst    bool // current phase is a memory burst
}

// NewSynthetic returns a generator for the profile. It panics if the
// profile fails validation, since profiles are program constants.
func NewSynthetic(p Profile) *Synthetic {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if p.Stride == 0 {
		p.Stride = 8
	}
	g := &Synthetic{prof: p}
	if p.ExecLat > 1 {
		g.execLatG = stats.NewGeomSampler(1 / p.ExecLat)
	}
	if p.DepDist > 0 {
		g.depDistG = stats.NewGeomSampler(1 / p.DepDist)
	}
	if p.HotBytes > 0 {
		g.hotBlks = int(p.HotBytes / 64)
		if g.hotBlks < 1 {
			g.hotBlks = 1
		}
		g.hotZipf = stats.NewZipfSampler(g.hotBlks, 0.6)
	}
	g.Reset()
	return g
}

// Name implements Generator.
func (g *Synthetic) Name() string { return g.prof.Name }

// Profile returns a copy of the generator's profile.
func (g *Synthetic) Profile() Profile { return g.prof }

// Reset implements Generator.
func (g *Synthetic) Reset() {
	g.rng.Reseed(g.prof.Seed ^ 0x15ecc0de ^ hashName(g.prof.Name))
	g.idx = 0
	g.seqCursor = 0
	g.lastLoadAt = 0
	g.haveLoad = false
	g.inBurst = true
	g.phaseLeft = g.prof.BurstLen
}

// hashName folds a workload name into a seed component so that two
// profiles that differ only in name still produce distinct streams.
func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a offset basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// memProbability returns the probability that the next instruction is a
// memory access, accounting for burst phases.
func (g *Synthetic) memProbability() float64 {
	p := &g.prof
	if p.BurstLen == 0 || p.GapLen == 0 {
		return p.MemFrac
	}
	if g.phaseLeft <= 0 {
		g.inBurst = !g.inBurst
		if g.inBurst {
			g.phaseLeft = p.BurstLen
		} else {
			g.phaseLeft = p.GapLen
		}
	}
	g.phaseLeft--
	if g.inBurst {
		// Boost memory intensity during the burst; the overall average
		// stays near MemFrac because gaps are compute-only.
		boosted := p.MemFrac * float64(p.BurstLen+p.GapLen) / float64(p.BurstLen)
		if boosted > 0.95 {
			boosted = 0.95
		}
		return boosted
	}
	return 0
}

// Next implements Generator.
func (g *Synthetic) Next() Instr {
	p := &g.prof
	if !g.rng.Bool(g.memProbability()) {
		in := g.computeInstr()
		g.idx++
		return in
	}

	in := Instr{Kind: Load, Lat: 1}
	if g.rng.Bool(p.StoreFrac) {
		in.Kind = Store
	}
	in.Addr = g.nextAddr()

	// Pointer chasing: a load whose address depends on the previous load.
	if in.Kind == Load && g.haveLoad && g.rng.Bool(p.ChaseFrac) {
		dist := g.idx - g.lastLoadAt
		if dist > 0 {
			in.Dep = clampDep(dist)
		}
	}
	if in.Kind == Load {
		g.lastLoadAt = g.idx
		g.haveLoad = true
	}
	g.idx++
	return in
}

// computeInstr emits a non-memory instruction with a plausible dependency
// distance and latency.
func (g *Synthetic) computeInstr() Instr {
	p := &g.prof
	in := Instr{Kind: Compute, Lat: 1}
	if p.ExecLat > 1 {
		// Latency is 1 + geometric tail with the configured mean.
		extra := g.execLatG.Sample(&g.rng)
		if extra > 30 {
			extra = 30
		}
		in.Lat = uint8(1 + extra)
	}
	if p.DepDist > 0 && g.idx > 0 {
		// Dependency distance ~ 1 + geometric with mean DepDist.
		d := uint64(1 + g.depDistG.Sample(&g.rng))
		if d > g.idx {
			d = g.idx
		}
		in.Dep = clampDep(d)
	}
	return in
}

// nextAddr draws the next memory address per the profile's locality mix.
func (g *Synthetic) nextAddr() uint64 {
	p := &g.prof
	if g.rng.Bool(p.SeqFrac) {
		a := g.seqCursor
		g.seqCursor = (g.seqCursor + p.Stride) % p.Footprint
		return a
	}
	if p.HotBytes > 0 && g.rng.Bool(p.HotFrac) {
		// Hot region with mild Zipf skew over 64-byte blocks: hot enough
		// to reward capacity that covers the region, flat enough that a
		// fraction of the region is not a substitute for all of it.
		b := g.hotZipf.Sample(&g.rng)
		return uint64(b)*64 + g.rng.Uint64n(64)&^0x7
	}
	// Cold uniform access over the whole footprint, 8-byte aligned.
	return g.rng.Uint64n(p.Footprint) &^ 0x7
}

func clampDep(d uint64) uint32 {
	const max = 1 << 30
	if d > max {
		return max
	}
	return uint32(d)
}
