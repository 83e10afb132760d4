package trace

import (
	"sync"
	"testing"

	"lpm/internal/parallel"
)

// identityInstrs is how far the identity test follows each stream: past
// the ~295k-instruction prefix a quick design-point simulation reads.
const identityInstrs = 300_000

// liveStream returns the first n instructions of p's live stream.
func liveStream(p Profile, n int) []Instr {
	g := NewSynthetic(p)
	out := make([]Instr, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// expectStream fails the test unless g's next len(want) instructions
// are want.
func expectStream(t *testing.T, what string, g Generator, want []Instr) {
	t.Helper()
	for i, w := range want {
		if got := g.Next(); got != w {
			t.Fatalf("%s: instruction %d = %+v, want %+v", what, i, got, w)
		}
	}
}

// freeChunks reports how many of a's chunks no recording holds.
func freeChunks(a *Arena) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.free)
}

// TestArenaMatchesSynthetic is the arena's identity proof: every
// built-in profile at seeds 0-2 replays exactly the live stream, on
// first use (recording), after Reset (replaying) and on a later Open,
// under a zero budget (everything live), a single chunk (seals), the
// process budget (evictions) and one big enough to keep every stream.
func TestArenaMatchesSynthetic(t *testing.T) {
	budgets := []int{0, arenaChunk, ArenaBytes, 64 << 20}
	arenas := make([]*Arena, len(budgets))
	for i, b := range budgets {
		arenas[i] = newArena(b)
	}
	n := identityInstrs
	if testing.Short() || raceBuild {
		n = 40_000
	}
	for _, name := range ProfileNames() {
		for seed := uint64(0); seed < 3; seed++ {
			p := MustProfile(name)
			p.Seed = seed
			want := liveStream(p, n)
			for i, a := range arenas {
				c := a.Open(p)
				expectStream(t, name+" first pass", c, want)
				c.Reset()
				expectStream(t, name+" after Reset", c, want[:n/4])
				c.Release()
				c = a.Open(p)
				expectStream(t, name+" reopened", c, want[:n/4])
				c.Release()
				if st := a.Stats(); st.SlabBytes != budgets[i] {
					t.Fatalf("budget %d: slab is %d bytes", budgets[i], st.SlabBytes)
				}
			}
		}
	}
	var total ArenaStats
	for i, a := range arenas {
		st := a.Stats()
		t.Logf("budget %8d: %+v", budgets[i], st)
		total.Hits += st.Hits
		total.Seals += st.Seals
		total.Evictions += st.Evictions
		if got := freeChunks(a) + heldChunks(a); got != budgets[i]/arenaChunk {
			t.Errorf("budget %d: %d chunks accounted for, want %d", budgets[i], got, budgets[i]/arenaChunk)
		}
	}
	if total.Hits == 0 || total.Seals == 0 || total.Evictions == 0 {
		t.Fatalf("hit, seal and eviction paths must all run: %+v", total)
	}
	if st := arenas[len(arenas)-1].Stats(); st.Evictions != 0 || st.Seals != 0 {
		t.Errorf("the big arena should keep every stream: %+v", st)
	}
}

// heldChunks counts the chunks a's recordings hold.
func heldChunks(a *Arena) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, r := range a.recs {
		n += r.nch
	}
	return n
}

// TestArenaResetAnywhere resets cursors mid-chunk, on either side of
// every chunk boundary of a recorded prefix, and after falling back to
// the live generator past a sealed end.
func TestArenaResetAnywhere(t *testing.T) {
	p := MustProfile("429.mcf")
	want := liveStream(p, 60_000)
	a := newArena(4 * arenaChunk)

	// Record the stream, noting where each chunk starts and the first
	// instruction served live.
	c := a.Open(p)
	var starts []int
	ord, sealedAt := -1, -1
	for i := range want {
		if got := c.Next(); got != want[i] {
			t.Fatalf("recording: instruction %d differs", i)
		}
		switch {
		case c.onLive && sealedAt < 0:
			sealedAt = i
		case !c.onLive && c.ord != ord:
			ord = c.ord
			starts = append(starts, i)
		}
	}
	if len(starts) < 2 || sealedAt < 0 {
		t.Fatalf("want several chunks and a sealed end, got chunk starts %v, sealed at %d", starts, sealedAt)
	}

	points := []int{0, 1, 777, sealedAt - 1, sealedAt, sealedAt + 1, len(want) - 1}
	for _, s := range starts[1:] {
		points = append(points, s-1, s, s+1)
	}
	for _, k := range points {
		c.Reset()
		for i := 0; i < k; i++ {
			c.Next()
		}
		c.Reset()
		expectStream(t, "reset", c, want)
	}
	c.Release()
	if st := a.Stats(); st.Seals == 0 {
		t.Fatalf("expected the 4-chunk arena to seal: %+v", st)
	}
}

// TestArenaInterleavedCursors steps several cursors of one stream, and
// cursors of streams competing for a small arena, in lockstep.
func TestArenaInterleavedCursors(t *testing.T) {
	const n = 50_000
	names := []string{"410.bwaves", "403.gcc", "433.milc"}
	want := map[string][]Instr{}
	for _, name := range names {
		want[name] = liveStream(MustProfile(name), n)
	}
	a := newArena(6 * arenaChunk)
	type run struct {
		name string
		c    *Cursor
		step int
		pos  int
	}
	var runs []*run
	for i, name := range names {
		for k := 0; k < 2; k++ {
			runs = append(runs, &run{name: name, c: a.Open(MustProfile(name)), step: 1 + 37*i + 500*k})
		}
	}
	for done := false; !done; {
		done = true
		for _, r := range runs {
			for s := 0; s < r.step && r.pos < n; s++ {
				if got := r.c.Next(); got != want[r.name][r.pos] {
					t.Fatalf("%s step %d: instruction %d differs", r.name, r.step, r.pos)
				}
				r.pos++
			}
			done = done && r.pos == n
		}
	}
	for _, r := range runs {
		r.c.Release()
	}
	if st := a.Stats(); st.Seals == 0 || st.Hits != 3 || st.Misses != 3 {
		t.Fatalf("want three shared recordings that seal: %+v", st)
	}
	if got := freeChunks(a) + heldChunks(a); got != 6 {
		t.Fatalf("%d chunks accounted for, want 6", got)
	}
}

// TestArenaConcurrentCursors has goroutines record and replay one
// stream through concurrent cursors; run with -race it checks the
// lock-free read path.
func TestArenaConcurrentCursors(t *testing.T) {
	p := MustProfile("471.omnetpp")
	p.Seed = 5
	want := liveStream(p, 120_000)
	for _, budget := range []int{3 * arenaChunk, ArenaBytes} {
		a := newArena(budget)
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := a.Open(p)
				defer c.Release()
				for i, x := range want {
					if got := c.Next(); got != x {
						errs <- "concurrent cursor diverged"
						return
					}
					if w%2 == 1 && i == len(want)/2 {
						c.Reset()
						for _, y := range want[:i+1] {
							if c.Next() != y {
								errs <- "concurrent cursor diverged after Reset"
								return
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("budget %d: %s", budget, e)
		}
		if got := freeChunks(a) + heldChunks(a); got != budget/arenaChunk {
			t.Fatalf("budget %d: %d chunks accounted for", budget, got)
		}
	}
}

// TestArenaResetDetachesPinned resets an arena under an open cursor: the
// cursor keeps replaying its stream and the chunks come back on Release.
func TestArenaResetDetachesPinned(t *testing.T) {
	p := MustProfile("403.gcc")
	want := liveStream(p, 30_000)
	a := newArena(8 * arenaChunk)
	c := a.Open(p)
	expectStream(t, "before Reset", c, want[:10_000])
	a.Reset()
	if st := a.Stats(); st != (ArenaStats{SlabBytes: 8 * arenaChunk}) {
		t.Fatalf("Reset must zero the counters: %+v", st)
	}
	expectStream(t, "after arena Reset", c, want[10_000:])
	d := a.Open(p) // a fresh recording beside the detached one
	expectStream(t, "fresh recording", d, want)
	d.Release()
	c.Release()
	c.Release()
	if got := freeChunks(a) + heldChunks(a); got != 8 {
		t.Fatalf("%d chunks accounted for, want 8", got)
	}
}

// TestArenaClearedByResetAllMemos pins the reset hook: ResetAllMemos
// empties the process arena, and arena use never shows in MemoStats.
func TestArenaClearedByResetAllMemos(t *testing.T) {
	h0, m0 := parallel.MemoStats()
	c := Open(MustProfile("401.bzip2"))
	for i := 0; i < 5000; i++ {
		c.Next()
	}
	c.Release()
	Open(MustProfile("401.bzip2")).Release()
	if st := ProcessArenaStats(); st.Hits == 0 || st.Misses == 0 || st.SlabBytes != ArenaBytes {
		t.Fatalf("process arena stats %+v", st)
	}
	if h, m := parallel.MemoStats(); h != h0 || m != m0 {
		t.Fatalf("arena use changed MemoStats: %d/%d -> %d/%d", h0, m0, h, m)
	}
	parallel.ResetAllMemos()
	if st := ProcessArenaStats(); st != (ArenaStats{SlabBytes: ArenaBytes}) {
		t.Fatalf("after ResetAllMemos: %+v", st)
	}
	if got := freeChunks(processArena); got != ArenaBytes/arenaChunk {
		t.Fatalf("%d free chunks after ResetAllMemos", got)
	}
}

// TestArenaCursorZeroAlloc pins the per-instruction paths — replay,
// recording and the live fallback — as allocation-free.
func TestArenaCursorZeroAlloc(t *testing.T) {
	a := newArena(2 * arenaChunk)
	c := a.Open(MustProfile("429.mcf"))
	defer c.Release()
	if n := testing.AllocsPerRun(5, func() {
		for i := 0; i < 40_000; i++ {
			c.Next()
		}
		c.Reset()
	}); n != 0 {
		t.Fatalf("cursor allocates %v times per run", n)
	}
}

// benchPer is how many instructions of each built-in stream the trace
// benchmarks cycle through: 16 of them fit the process arena.
const benchPer = 10_000

// BenchmarkSyntheticNext is live generation over the built-in profiles,
// the baseline BenchmarkCursorReplay compares with.
func BenchmarkSyntheticNext(b *testing.B) {
	var gens []Generator
	for _, name := range ProfileNames() {
		gens = append(gens, NewSynthetic(MustProfile(name)))
	}
	benchStreams(b, gens)
}

// BenchmarkCursorReplay is replay of the same streams, recorded first.
func BenchmarkCursorReplay(b *testing.B) {
	a := newArena(ArenaBytes)
	var gens []Generator
	for _, name := range ProfileNames() {
		c := a.Open(MustProfile(name))
		defer c.Release()
		for i := 0; i < benchPer; i++ {
			c.Next()
		}
		gens = append(gens, c)
	}
	if st := a.Stats(); st.Seals != 0 {
		b.Fatalf("streams do not fit the arena: %+v", st)
	}
	benchStreams(b, gens)
}

// benchStreams draws b.N instructions, benchPer from each generator in
// turn.
func benchStreams(b *testing.B, gens []Generator) {
	b.ResetTimer()
	for done := 0; done < b.N; {
		for _, g := range gens {
			g.Reset()
			for i := 0; i < benchPer && done < b.N; i++ {
				g.Next()
				done++
			}
		}
	}
}
