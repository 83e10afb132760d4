package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format:
//
//	magic   [8]byte  "LPMTRC01"
//	name    uvarint length + bytes
//	records: one per instruction
//	  tag     byte: low 2 bits = Kind, bit 2 = has Dep, bit 3 = has Lat>1
//	  addr    zig-zag varint (memory instructions only, delta vs previous)
//	  dep     uvarint (if present)
//	  lat     uvarint (if present)
//
// The format is self-delimiting; a Reader yields io.EOF at end of stream.
// The process Arena packs the same records into memory chunks.

// Record tag bits.
const (
	tagKind = 0x3    // the Kind
	tagDep  = 1 << 2 // a dep varint follows
	tagLat  = 1 << 3 // a lat varint follows
)

// maxRecord bounds one encoded record: the tag, a 64-bit address delta,
// a uint32 dep and a uint8 lat.
const maxRecord = 1 + binary.MaxVarintLen64 + binary.MaxVarintLen32 + 2

// putRecord encodes in into dst, which must hold maxRecord bytes, with a
// memory address delta-encoded against prevAddr, and returns the number
// of bytes written.
func putRecord(dst []byte, in Instr, prevAddr uint64) int {
	tag := byte(in.Kind) & tagKind
	if in.Dep != 0 {
		tag |= tagDep
	}
	if in.Lat > 1 {
		tag |= tagLat
	}
	dst[0] = tag
	n := 1
	if in.Kind.IsMem() {
		// Zig-zag delta encoding keeps sequential streams tiny.
		n += binary.PutVarint(dst[n:], int64(in.Addr)-int64(prevAddr))
	}
	if in.Dep != 0 {
		n += binary.PutUvarint(dst[n:], uint64(in.Dep))
	}
	if in.Lat > 1 {
		n += binary.PutUvarint(dst[n:], uint64(in.Lat))
	}
	return n
}

var traceMagic = [8]byte{'L', 'P', 'M', 'T', 'R', 'C', '0', '1'}

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("trace: malformed trace stream")

// Writer records an instruction stream to an io.Writer in the binary
// trace format. Create with NewWriter; call Flush when done.
type Writer struct {
	w        *bufio.Writer
	prevAddr uint64
	buf      [maxRecord]byte
	count    uint64
}

// NewWriter writes the header for a trace named name and returns the
// Writer.
func NewWriter(w io.Writer, name string) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return nil, err
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(name)))
	if _, err := bw.Write(lenBuf[:n]); err != nil {
		return nil, err
	}
	if _, err := bw.WriteString(name); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one instruction to the trace.
func (tw *Writer) Write(in Instr) error {
	n := putRecord(tw.buf[:], in, tw.prevAddr)
	if in.Kind.IsMem() {
		tw.prevAddr = in.Addr
	}
	tw.count++
	_, err := tw.w.Write(tw.buf[:n])
	return err
}

// Count returns the number of instructions written.
func (tw *Writer) Count() uint64 { return tw.count }

// Flush flushes buffered output to the underlying writer.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Reader replays a recorded trace. It implements Generator for seekable
// sources when constructed with NewReplayer; the lower-level NewReader
// form reads a stream once.
type Reader struct {
	r        *bufio.Reader
	name     string
	prevAddr uint64
}

// NewReader parses the header and returns a Reader positioned at the
// first instruction.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic[:])
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if nameLen > 4096 {
		return nil, fmt.Errorf("%w: unreasonable name length %d", ErrBadTrace, nameLen)
	}
	nameBytes := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBytes); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	return &Reader{r: br, name: string(nameBytes)}, nil
}

// Name returns the recorded workload name.
func (tr *Reader) Name() string { return tr.name }

// Read returns the next instruction, or io.EOF at end of trace.
func (tr *Reader) Read() (Instr, error) {
	tag, err := tr.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return Instr{}, io.EOF
		}
		return Instr{}, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	in := Instr{Kind: Kind(tag & tagKind), Lat: 1}
	if in.Kind > Store {
		return Instr{}, fmt.Errorf("%w: bad kind %d", ErrBadTrace, in.Kind)
	}
	if in.Kind.IsMem() {
		delta, err := binary.ReadVarint(tr.r)
		if err != nil {
			return Instr{}, fmt.Errorf("%w: truncated addr", ErrBadTrace)
		}
		in.Addr = uint64(int64(tr.prevAddr) + delta)
		tr.prevAddr = in.Addr
	}
	if tag&tagDep != 0 {
		dep, err := binary.ReadUvarint(tr.r)
		if err != nil {
			return Instr{}, fmt.Errorf("%w: truncated dep", ErrBadTrace)
		}
		in.Dep = clampDep(dep)
	}
	if tag&tagLat != 0 {
		lat, err := binary.ReadUvarint(tr.r)
		if err != nil || lat == 0 || lat > 255 {
			return Instr{}, fmt.Errorf("%w: bad latency", ErrBadTrace)
		}
		in.Lat = uint8(lat)
	}
	return in, nil
}

// Record captures the next n instructions from g into w.
func Record(w io.Writer, g Generator, n int) error {
	tw, err := NewWriter(w, g.Name())
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := tw.Write(g.Next()); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// Replayer adapts a fully buffered recorded trace to the Generator
// interface, looping back to the start when the recording is exhausted so
// the simulator can run for any horizon.
type Replayer struct {
	name   string
	instrs []Instr
	pos    int
}

// NewReplayer reads the whole trace from r into memory.
func NewReplayer(r io.Reader) (*Replayer, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	rp := &Replayer{name: tr.Name()}
	for {
		in, err := tr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		rp.instrs = append(rp.instrs, in)
	}
	if len(rp.instrs) == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrBadTrace)
	}
	return rp, nil
}

// Name implements Generator.
func (rp *Replayer) Name() string { return rp.name }

// Len returns the number of recorded instructions.
func (rp *Replayer) Len() int { return len(rp.instrs) }

// Next implements Generator, looping at end of recording.
func (rp *Replayer) Next() Instr {
	in := rp.instrs[rp.pos]
	rp.pos++
	if rp.pos == len(rp.instrs) {
		rp.pos = 0
	}
	return in
}

// Reset implements Generator.
func (rp *Replayer) Reset() { rp.pos = 0 }
