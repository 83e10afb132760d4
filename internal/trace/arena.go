package trace

// The arena records each synthetic stream once per process and replays
// it to every later simulation of the same profile. Design sweeps
// re-simulate one workload at many hardware points (Table I, the Fig. 3
// walks, the Fig. 6/7 L1 sweep); generators are open-loop, so every one
// of those runs would otherwise regenerate an identical stream.
// DESIGN.md §11 describes the encoding, the budget, sealing and the
// live fallback.

import (
	"sync"
	"sync/atomic"

	"lpm/internal/parallel"
)

const (
	// ArenaBytes is the size of the process arena's slab: the most
	// memory recorded streams ever occupy.
	ArenaBytes = 1 << 20
	// arenaChunk is the unit the slab is handed out in.
	arenaChunk = 32 << 10
	// recordBatch is how many instructions a cursor that has caught up
	// with the end of a recording appends to it at once.
	recordBatch = 1024
)

// processArena serves Open. ResetAllMemos clears it, so a pass that
// starts from cold memos also starts from a cold arena.
var processArena = newArena(ArenaBytes)

func init() { parallel.RegisterCache(processArena) }

// Open returns a cursor over p's stream from the process arena: a
// Generator whose stream is identical to NewSynthetic(p)'s. Call
// Release when the simulation using it is done.
func Open(p Profile) *Cursor { return processArena.Open(p) }

// ProcessArenaStats reports the process arena's counters.
func ProcessArenaStats() ArenaStats { return processArena.Stats() }

// ArenaStats are an arena's counters since it was created or last
// Reset.
type ArenaStats struct {
	// Hits and Misses count Opens that found a recording of the
	// profile and Opens that started one.
	Hits, Misses uint64
	// Seals counts recordings that stopped growing because every chunk
	// was held by a recording in use.
	Seals uint64
	// Evictions counts recordings dropped to free their chunks.
	Evictions uint64
	// SlabBytes is the size of the slab: 0 until the first Open.
	SlabBytes int
}

// Arena is a content-keyed store of recorded synthetic streams, keyed by
// the full Profile (Seed included). A stream is recorded on first use
// through a live Synthetic, in the LPMTRC01 record layout, into fixed
// chunks of one slab of constant size. When no chunk is free, the
// least recently opened recording no cursor pins is evicted; when none
// can be, the recording that needs the chunk seals, and cursors that
// reach its end continue on a copy of its generator. Either way every
// cursor yields exactly the live stream.
type Arena struct {
	budget int // slab bytes, a multiple of arenaChunk

	mu   sync.Mutex
	slab []byte  // allocated by the first Open
	free []int32 // chunk indices not held by a recording
	recs []*recording
	tick uint64 // Open counter, the LRU clock

	hits, misses, seals, evictions uint64
}

// newArena returns an arena whose slab will hold budget bytes, rounded
// down to whole chunks.
func newArena(budget int) *Arena {
	n := budget / arenaChunk
	return &Arena{budget: n * arenaChunk, free: make([]int32, 0, n)}
}

// recording is one profile's stream, as far as it has been recorded.
type recording struct {
	key Profile

	// committed is the logical end of the recorded bytes: chunk ordinal
	// times arenaChunk plus the offset in that chunk. Everything below
	// it is immutable, so cursors read it without a lock.
	committed atomic.Uint64

	// The writer's state, guarded by mu. chunks and used are read by
	// cursors for ordinals below committed.
	mu       sync.Mutex
	gen      Synthetic // positioned at committed
	prevAddr uint64    // delta base of the next memory record
	chunks   []int32   // slab chunk of each chunk ordinal
	used     []int32   // bytes used in each closed chunk
	nch      int       // chunks held
	off      int       // write offset in the last chunk
	sealed   bool

	// Guarded by Arena.mu.
	pins     int
	lastOpen uint64
	detached bool // Reset dropped it while pinned
}

// Open returns a cursor over p's stream, recording it if no recording
// of p exists. It panics if p fails validation, as NewSynthetic does.
func (a *Arena) Open(p Profile) *Cursor {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.slab == nil && a.budget > 0 {
		a.slab = allocSlab(a.budget)
		for i := a.budget/arenaChunk - 1; i >= 0; i-- {
			a.free = append(a.free, int32(i))
		}
	}
	a.tick++
	var r *recording
	for _, x := range a.recs {
		if x.key == p {
			r = x
			break
		}
	}
	if r == nil {
		n := a.budget / arenaChunk
		r = &recording{key: p, gen: *NewSynthetic(p), chunks: make([]int32, n), used: make([]int32, n)}
		a.recs = append(a.recs, r)
		a.misses++
	} else {
		a.hits++
	}
	r.pins++
	r.lastOpen = a.tick
	return &Cursor{a: a, rec: r, name: p.Name}
}

// Stats returns the arena's counters.
func (a *Arena) Stats() ArenaStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return ArenaStats{Hits: a.hits, Misses: a.misses, Seals: a.seals,
		Evictions: a.evictions, SlabBytes: len(a.slab)}
}

// Reset drops every recording and zeroes the counters, so the next Open
// of any stream records it afresh. A recording a cursor still pins
// keeps its chunks until its last Release. The slab is kept.
func (a *Arena) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, r := range a.recs {
		if r.pins == 0 {
			a.freeChunks(r)
		} else {
			r.detached = true
		}
	}
	clear(a.recs)
	a.recs = a.recs[:0]
	a.hits, a.misses, a.seals, a.evictions = 0, 0, 0, 0
}

// release unpins r. A recording no longer in the arena gives its chunks
// back; one that holds no chunk (sealed empty, or never read) is
// dropped, so every unpinned recording in the arena holds a chunk.
func (a *Arena) release(r *recording) {
	a.mu.Lock()
	defer a.mu.Unlock()
	r.pins--
	if r.pins > 0 {
		return
	}
	switch {
	case r.detached:
		a.freeChunks(r)
	case r.nch == 0:
		a.remove(r)
	}
}

// chunk returns slab chunk i.
func (a *Arena) chunk(i int32) []byte {
	lo := int(i) * arenaChunk
	return a.slab[lo : lo+arenaChunk : lo+arenaChunk]
}

// takeChunk hands out a free chunk, evicting the least recently opened
// unpinned recording if there is none. It reports false, counting a
// seal, when every chunk is held by a pinned recording.
func (a *Arena) takeChunk() (int32, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.free) == 0 {
		var victim *recording
		for _, r := range a.recs {
			if r.pins == 0 && (victim == nil || r.lastOpen < victim.lastOpen) {
				victim = r
			}
		}
		if victim != nil {
			a.remove(victim)
			a.freeChunks(victim)
			a.evictions++
		}
	}
	n := len(a.free)
	if n == 0 {
		a.seals++
		return 0, false
	}
	i := a.free[n-1]
	a.free = a.free[:n-1]
	return i, true
}

// freeChunks returns r's chunks to the free list.
func (a *Arena) freeChunks(r *recording) {
	for _, i := range r.chunks[:r.nch] {
		a.free = append(a.free, i)
	}
	r.nch = 0
}

// remove takes r out of the arena's list.
func (a *Arena) remove(r *recording) {
	for i, x := range a.recs {
		if x == r {
			last := len(a.recs) - 1
			a.recs[i] = a.recs[last]
			a.recs[last] = nil
			a.recs = a.recs[:last]
			return
		}
	}
}

// extend appends up to recordBatch instructions to r for a cursor that
// has read everything up to pos. It reports false when r is sealed at
// pos; the cursor then continues on c.live, a copy of r's generator.
func (r *recording) extend(a *Arena, c *Cursor, pos uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.committed.Load() > pos {
		return true // another cursor recorded further meanwhile
	}
	if !r.sealed {
		r.record(a)
		if r.committed.Load() > pos {
			return true
		}
	}
	c.live = r.gen
	return false
}

// record appends up to recordBatch instructions and publishes them. A
// record never straddles chunks; a chunk is closed, with its used
// length, once the next record might not fit.
func (r *recording) record(a *Arena) {
	var w []byte
	if r.nch > 0 {
		w = a.chunk(r.chunks[r.nch-1])
	}
	for i := 0; i < recordBatch; i++ {
		if r.nch == 0 || r.off+maxRecord >= arenaChunk {
			ci, ok := a.takeChunk()
			if !ok {
				r.sealed = true
				break
			}
			if r.nch > 0 {
				r.used[r.nch-1] = int32(r.off)
			}
			r.chunks[r.nch] = ci
			r.nch++
			r.off = 0
			w = a.chunk(ci)
		}
		in := r.gen.Next()
		r.off += putRecord(w[r.off:], in, r.prevAddr)
		if in.Kind.IsMem() {
			r.prevAddr = in.Addr
		}
	}
	if r.nch > 0 {
		r.committed.Store(uint64(r.nch-1)*arenaChunk + uint64(r.off))
	}
}

// Cursor replays one recorded stream. It implements Generator; its
// stream is identical to NewSynthetic's for the same profile. A cursor
// is not safe for concurrent use, but any number of cursors may replay
// (and extend) one recording concurrently.
type Cursor struct {
	a    *Arena
	rec  *recording
	name string

	buf      []byte // the committed bytes of chunk ord
	off      int    // read offset in buf
	ord      int    // chunk ordinal
	prevAddr uint64

	live   Synthetic // the stream past a sealed end
	onLive bool
}

// Name implements Generator.
func (c *Cursor) Name() string { return c.name }

// Reset implements Generator.
func (c *Cursor) Reset() {
	c.buf, c.off, c.ord, c.prevAddr, c.onLive = nil, 0, 0, 0, false
}

// Release unpins the cursor's recording; the cursor must not be used
// afterwards. Releasing twice is a no-op.
func (c *Cursor) Release() {
	if c.rec == nil {
		return
	}
	c.a.release(c.rec)
	c.rec = nil
}

// Next implements Generator.
func (c *Cursor) Next() Instr {
	if c.off >= len(c.buf) && !c.fill() {
		return c.live.Next()
	}
	b, i := c.buf, c.off
	tag := b[i]
	i++
	in := Instr{Kind: Kind(tag & tagKind), Lat: 1}
	if in.Kind.IsMem() {
		var zz uint64
		zz, i = uvarintAt(b, i)
		c.prevAddr += uint64(int64(zz>>1) ^ -int64(zz&1)) // zig-zag delta
		in.Addr = c.prevAddr
	}
	if tag&tagDep != 0 {
		var v uint64
		v, i = uvarintAt(b, i)
		in.Dep = uint32(v)
	}
	if tag&tagLat != 0 {
		var v uint64
		v, i = uvarintAt(b, i)
		in.Lat = uint8(v)
	}
	c.off = i
	return in
}

// uvarintAt decodes the uvarint at b[i:] and returns it with the index
// past it. Records are written by the arena itself, so the input is
// trusted: no overflow or truncation checks.
func uvarintAt(b []byte, i int) (uint64, int) {
	var x uint64
	for s := uint(0); ; s += 7 {
		v := b[i]
		i++
		if v < 0x80 {
			return x | uint64(v)<<s, i
		}
		x |= uint64(v&0x7f) << s
	}
}

// fill points buf at the next committed bytes of the stream, recording
// more when the cursor has caught up with the recording. It reports
// false when the stream continues on c.live.
func (c *Cursor) fill() bool {
	if c.onLive {
		return false
	}
	r := c.rec
	for {
		end := r.committed.Load()
		base := uint64(c.ord) * arenaChunk
		switch {
		case end >= base+arenaChunk: // chunk ord is closed
			if used := int(r.used[c.ord]); c.off < used {
				c.buf = c.a.chunk(r.chunks[c.ord])[:used]
				return true
			}
			c.ord++
			c.off = 0
		case end > base+uint64(c.off):
			c.buf = c.a.chunk(r.chunks[c.ord])[:end-base]
			return true
		default: // caught up with the recording
			if !r.extend(c.a, c, base+uint64(c.off)) {
				c.buf, c.off, c.onLive = nil, 0, true
				return false
			}
		}
	}
}
