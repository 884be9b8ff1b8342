// Package gzindex implements the related-work baseline of the paper's
// reference [11] (Heng Li, "Random access to zlib-compressed files",
// 2014; the zran approach): during one full sequential decompression,
// checkpoint the decoder state — bit offset, output offset, and the
// 32 KiB window — every N output bytes. Random access then seeks to
// the nearest checkpoint and inflates forward.
//
// This is the technique the paper contrasts pugz against: it solves
// random access *exactly*, but requires decompressing the whole file
// once beforehand and storing a side-car index, which "does not apply
// when one only needs to read a given compressed file once"
// (Section II). The experiments use it as the exact-random-access
// baseline for the fqgz comparison.
package gzindex

import (
	"bytes"
	stdflate "compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bitio"
	"repro/internal/flate"
)

// DefaultSpacing is the default output-byte distance between
// checkpoints (1 MiB, zran's common choice).
const DefaultSpacing = 1 << 20

const windowSize = flate.WindowSize

// Checkpoint is one restart point.
type Checkpoint struct {
	// Bit is the payload bit offset of a block boundary.
	Bit int64
	// Out is the decompressed offset at that boundary.
	Out int64
	// Window is the 32 KiB of output preceding Out (zero-padded at
	// stream start).
	Window []byte
}

// Index is a random-access index over one DEFLATE stream.
type Index struct {
	Checkpoints []Checkpoint
	// OutSize is the total decompressed size.
	OutSize int64
	// EndBit is the bit offset just past the final block.
	EndBit int64
}

// Build performs one sequential decode of payload, checkpointing at
// the first block boundary after every `spacing` output bytes
// (spacing <= 0 selects DefaultSpacing).
func Build(payload []byte, spacing int64) (*Index, error) {
	if spacing <= 0 {
		spacing = DefaultSpacing
	}
	out, spans, err := flate.DecompressRecorded(payload, 0, true)
	if err != nil {
		return nil, err
	}
	ix := &Index{OutSize: int64(len(out))}
	if len(spans) > 0 {
		ix.EndBit = spans[len(spans)-1].EndBit
	}
	var nextAt int64 // first checkpoint at output offset 0
	for _, s := range spans {
		if s.OutStart < nextAt {
			continue
		}
		w := make([]byte, windowSize)
		if s.OutStart >= windowSize {
			copy(w, out[s.OutStart-windowSize:s.OutStart])
		} else {
			copy(w[windowSize-s.OutStart:], out[:s.OutStart])
		}
		ix.Checkpoints = append(ix.Checkpoints, Checkpoint{
			Bit:    s.Event.StartBit,
			Out:    s.OutStart,
			Window: w,
		})
		nextAt = s.OutStart + spacing
	}
	return ix, nil
}

// ErrMismatch reports that an index does not describe the stream it is
// being read against: a checkpoint span did not decode, or did not end
// at the next checkpoint's bit with exactly the bytes the index
// promises. A sidecar is untrusted input, so a read through one returns
// the right bytes or an error wrapping ErrMismatch. The check is of
// geometry only — the format carries no content checksum, so a forged
// window over honest offsets is beyond it.
var ErrMismatch = errors.New("gzindex: index does not match the stream")

// FindCheckpoint returns the last checkpoint at or before decompressed
// offset off — the restart point a forward scan resumes from.
func (ix *Index) FindCheckpoint(off int64) (*Checkpoint, error) {
	i, err := ix.spanIndex(off)
	if err != nil {
		return nil, err
	}
	return &ix.Checkpoints[i], nil
}

// spanIndex returns the ordinal of the checkpoint span holding off:
// the last checkpoint at or before it.
func (ix *Index) spanIndex(off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("gzindex: negative offset %d", off)
	}
	if off >= ix.OutSize {
		return 0, fmt.Errorf("gzindex: offset %d past end %d", off, ix.OutSize)
	}
	lo, hi := 0, len(ix.Checkpoints)
	for lo < hi {
		mid := (lo + hi) / 2
		if ix.Checkpoints[mid].Out <= off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0, fmt.Errorf("gzindex: offset %d before first checkpoint", off)
	}
	return lo - 1, nil
}

// spanEnd returns where span i ends: the next checkpoint, or the end
// of the stream for the last one. Both are block boundaries.
func (ix *Index) spanEnd(i int) (bit, out int64) {
	if i+1 < len(ix.Checkpoints) {
		return ix.Checkpoints[i+1].Bit, ix.Checkpoints[i+1].Out
	}
	return ix.EndBit, ix.OutSize
}

// SpanAt returns the decompressed extent [start, end) of the checkpoint
// span holding off — the unit ReadAtSource decodes with no waste, and
// so the unit worth caching. ok is false when off is outside the index.
func (ix *Index) SpanAt(off int64) (start, end int64, ok bool) {
	i, err := ix.spanIndex(off)
	if err != nil {
		return 0, 0, false
	}
	_, end = ix.spanEnd(i)
	return ix.Checkpoints[i].Out, end, true
}

// Source returns payload bytes [lo, hi), or the part of them that
// exists. The slice is only read, and only until the call that asked
// for it returns.
type Source func(lo, hi int64) ([]byte, error)

// spanSink is a ByteSink (so the multi-symbol fast loop runs straight
// into its buffer) that ends the decode on a block boundary: at the
// span's end bit, where it also checks the index's promise, or as soon
// as a partial read is covered.
type spanSink struct {
	flate.ByteSink
	endBit  int64 // where the span ends, relative to the loaded bytes
	spanLen int64 // bytes the index says the span holds
	need    int64 // bytes the caller wants, counted from the span start
}

func (s *spanSink) BlockEnd(nextBit int64) error {
	n := s.Len()
	switch {
	case nextBit >= s.endBit:
		if nextBit != s.endBit || n != s.spanLen {
			return ErrMismatch
		}
		return flate.Stop
	case n > s.spanLen:
		return ErrMismatch
	case n >= s.need && s.need < s.spanLen:
		return flate.Stop
	}
	return nil
}

// blockSlack is the output room reserved past a partial read's last
// byte for the rest of its block; a longer block grows the buffer.
const blockSlack = 256 << 10

// scratch recycles the buffers inflate decodes into (window, span and
// slack, contiguous because matches reach back into the window): a read
// copies its bytes out and returns the buffer, so it allocates nothing
// beyond what its caller supplied.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// inflate decodes whole blocks of span i from its checkpoint until at
// least need bytes are out, loading exactly the compressed bytes
// between the span's two bits. A read of the whole span (need equal to
// its length) must end on the span's end bit with exactly that many
// bytes; a shorter one stops at the first block boundary covering it.
// The result aliases *buf, which inflate reuses or replaces.
func (ix *Index) inflate(i int, src Source, need int64, buf *[]byte) ([]byte, error) {
	cp := &ix.Checkpoints[i]
	endBit, endOut := ix.spanEnd(i)
	if cp.Bit < 0 || endBit <= cp.Bit || endOut < cp.Out {
		return nil, fmt.Errorf("gzindex: span %d: %w: checkpoints out of order", i, ErrMismatch)
	}
	lo, hi := cp.Bit/8, endBit/8
	if endBit%8 != 0 {
		hi++
	}
	comp, err := src(lo, hi)
	if err != nil {
		return nil, err
	}
	r, err := bitio.NewReaderAt(comp, cp.Bit-lo*8)
	if err != nil {
		return nil, fmt.Errorf("gzindex: span %d: %w: %w", i, ErrMismatch, err)
	}
	// Only as much of the window as the stream has produced is history:
	// a reference reaching before the stream start then fails as in a
	// plain gunzip instead of reading the zero padding.
	hist := cp.Window
	if int64(len(hist)) > cp.Out {
		hist = hist[int64(len(hist))-cp.Out:]
	}
	s := &spanSink{endBit: endBit - lo*8, spanLen: endOut - cp.Out, need: need}
	if room := len(hist) + int(min(s.spanLen, need+blockSlack)) + flate.FastSlack; cap(*buf) < room {
		*buf = make([]byte, 0, room)
	}
	s.Out = append((*buf)[:0], hist...)
	s.Prefix = len(hist)
	defer func() { *buf = s.Out }() // the sink may have grown it
	dec := flate.GetDecoder(flate.Options{})
	defer flate.PutDecoder(dec)
	final, err := dec.DecodeBlocks(r, s)
	switch {
	case errors.Is(err, ErrMismatch):
		return nil, fmt.Errorf("gzindex: span %d: %w", i, err)
	case err != nil:
		return nil, fmt.Errorf("gzindex: span %d: %w: %w", i, ErrMismatch, err)
	case final:
		return nil, fmt.Errorf("gzindex: span %d: %w: stream ends inside it", i, ErrMismatch)
	}
	return s.Output(), nil
}

// ReadAtSource fills p with decompressed bytes starting at output
// offset off, one checkpoint span at a time: each span the read touches
// is decoded from its own checkpoint, so nothing before the first span
// and nothing after the last block needed is inflated. It returns the
// bytes read (short only at end of stream) and the bytes inflated to
// produce them.
func (ix *Index) ReadAtSource(src Source, p []byte, off int64) (n int, inflated int64, err error) {
	i, err := ix.spanIndex(off)
	if err != nil {
		return 0, 0, err
	}
	buf := scratch.Get().(*[]byte)
	defer scratch.Put(buf)
	for ; n < len(p) && i < len(ix.Checkpoints); i++ {
		start := ix.Checkpoints[i].Out
		_, end := ix.spanEnd(i)
		need := min(off+int64(len(p)-n), end) - start
		out, err := ix.inflate(i, src, need, buf)
		inflated += int64(len(out))
		if err != nil {
			return n, inflated, err
		}
		m := copy(p[n:], out[off-start:need])
		n += m
		off += int64(m)
	}
	return n, inflated, nil
}

// ReadAt is ReadAtSource over a payload held in memory.
func (ix *Index) ReadAt(payload []byte, p []byte, off int64) (int, error) {
	n, _, err := ix.ReadAtSource(func(lo, hi int64) ([]byte, error) {
		lo, hi = min(lo, int64(len(payload))), min(hi, int64(len(payload)))
		return payload[lo:hi], nil
	}, p, off)
	return n, err
}

// --- Serialization ----------------------------------------------------

// Format: magic "GZIX" | version u8 | flags u8 (1 = windows deflated)
// | outSize i64 | endBit i64 | count u32 | per checkpoint:
// bit i64 | out i64 | wlen u32 | window bytes (raw or deflated).
const (
	magic       = "GZIX"
	version     = 1
	flagDeflate = 1
)

// Marshal serialises the index. Windows are compressed with the
// standard library's DEFLATE at BestSpeed, ~2.8x smaller than raw on
// FASTQ: level 6's windows are ~13 % smaller but cost ~6x the CPU, a
// third of a whole index build. Any DEFLATE writer's windows load,
// level-6 sidecars included. Each window is compressed on its own, so
// they are deflated on up to GOMAXPROCS goroutines and laid out in
// order: the blob is the same whatever the parallelism.
func (ix *Index) Marshal() ([]byte, error) {
	wins := deflateWindows(ix.Checkpoints)
	var out []byte
	out = append(out, magic...)
	out = append(out, version, flagDeflate)
	out = binary.LittleEndian.AppendUint64(out, uint64(ix.OutSize))
	out = binary.LittleEndian.AppendUint64(out, uint64(ix.EndBit))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(ix.Checkpoints)))
	for i, cp := range ix.Checkpoints {
		out = binary.LittleEndian.AppendUint64(out, uint64(cp.Bit))
		out = binary.LittleEndian.AppendUint64(out, uint64(cp.Out))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(wins[i])))
		out = append(out, wins[i]...)
	}
	return out, nil
}

// deflateWindows compresses each checkpoint's window at BestSpeed on
// min(GOMAXPROCS, len(cps)) goroutines, one writer each, taking
// windows in turn from a shared counter.
func deflateWindows(cps []Checkpoint) [][]byte {
	wins := make([][]byte, len(cps))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(cps)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// BestSpeed is a valid level, and a writer into a
			// bytes.Buffer cannot fail.
			zw, _ := stdflate.NewWriter(nil, stdflate.BestSpeed)
			for i := next.Add(1) - 1; i < int64(len(cps)); i = next.Add(1) - 1 {
				var buf bytes.Buffer
				zw.Reset(&buf)
				zw.Write(cps[i].Window)
				zw.Close()
				wins[i] = buf.Bytes()
			}
		}()
	}
	wg.Wait()
	return wins
}

// maxBytesPerBit is DEFLATE's best case: a 258-byte match behind a
// one-bit length code and a one-bit distance code.
const maxBytesPerBit = 129

// Unmarshal parses a serialised index. A sidecar is untrusted input:
// the checkpoints must be strictly increasing in both bit and output
// offset and lie inside [0, EndBit) and [0, OutSize], no span may claim
// more output than DEFLATE can produce from its bits (so a reader may
// size buffers from the index once it has checked EndBit against the
// file), the count must fit in the bytes that follow it, and a window
// inflates under a hard 32 KiB bound — so no blob makes Unmarshal
// allocate more than a small multiple of its own length.
func Unmarshal(data []byte) (*Index, error) {
	if len(data) < 4+2+8+8+4 {
		return nil, errors.New("gzindex: truncated index")
	}
	if string(data[:4]) != magic {
		return nil, errors.New("gzindex: bad magic")
	}
	if data[4] != version {
		return nil, fmt.Errorf("gzindex: unsupported version %d", data[4])
	}
	deflated := data[5]&flagDeflate != 0
	pos := 6
	ix := &Index{
		OutSize: int64(binary.LittleEndian.Uint64(data[pos:])),
		EndBit:  int64(binary.LittleEndian.Uint64(data[pos+8:])),
	}
	if ix.OutSize < 0 || ix.EndBit < 0 {
		return nil, errors.New("gzindex: negative stream extent")
	}
	count := int(binary.LittleEndian.Uint32(data[pos+16:]))
	pos += 20
	if count == 0 {
		return nil, errors.New("gzindex: no checkpoints")
	}
	if count > (len(data)-pos)/20 {
		return nil, fmt.Errorf("gzindex: %d checkpoints cannot fit in %d bytes", count, len(data)-pos)
	}
	ix.Checkpoints = make([]Checkpoint, 0, count)
	prev := Checkpoint{Bit: -1, Out: -1}
	for i := 0; i < count; i++ {
		if len(data)-pos < 20 {
			return nil, errors.New("gzindex: truncated checkpoint")
		}
		cp := Checkpoint{
			Bit: int64(binary.LittleEndian.Uint64(data[pos:])),
			Out: int64(binary.LittleEndian.Uint64(data[pos+8:])),
		}
		wlen := int(binary.LittleEndian.Uint32(data[pos+16:]))
		pos += 20
		if cp.Bit <= prev.Bit || cp.Out <= prev.Out || cp.Bit >= ix.EndBit || cp.Out > ix.OutSize {
			return nil, fmt.Errorf("gzindex: checkpoint %d (bit %d, out %d) out of order or out of range", i, cp.Bit, cp.Out)
		}
		if i > 0 && (cp.Out-prev.Out)/maxBytesPerBit > cp.Bit-prev.Bit {
			return nil, fmt.Errorf("gzindex: span %d claims %d bytes from %d bits", i-1, cp.Out-prev.Out, cp.Bit-prev.Bit)
		}
		prev = cp
		if wlen > len(data)-pos {
			return nil, errors.New("gzindex: truncated window")
		}
		raw := data[pos : pos+wlen]
		pos += wlen
		if deflated {
			w, err := inflateWindow(raw)
			if err != nil {
				return nil, fmt.Errorf("gzindex: checkpoint %d window: %w", i, err)
			}
			cp.Window = w
		} else {
			cp.Window = append([]byte{}, raw...)
		}
		if len(cp.Window) != windowSize {
			return nil, fmt.Errorf("gzindex: checkpoint %d window size %d", i, len(cp.Window))
		}
		ix.Checkpoints = append(ix.Checkpoints, cp)
	}
	if (ix.OutSize-prev.Out)/maxBytesPerBit > ix.EndBit-prev.Bit {
		return nil, fmt.Errorf("gzindex: last span claims %d bytes from %d bits", ix.OutSize-prev.Out, ix.EndBit-prev.Bit)
	}
	return ix, nil
}

// inflateWindow decodes one deflated window through a sliding tail
// sink that stops one byte past the window size, so a hostile blob
// cannot make it allocate what it claims to expand to.
func inflateWindow(raw []byte) ([]byte, error) {
	r, err := bitio.NewReaderAt(raw, 0)
	if err != nil {
		return nil, err
	}
	sink := flate.NewTailSink(nil)
	defer sink.Release()
	sink.Limit = windowSize + 1
	dec := flate.GetDecoder(flate.Options{})
	defer flate.PutDecoder(dec)
	dec.SetTrackStart(true)
	if err := dec.DecodeStream(r, sink); err != nil {
		return nil, err
	}
	if sink.Len() != windowSize {
		return nil, fmt.Errorf("window size %d", sink.Len())
	}
	w := make([]byte, windowSize)
	sink.WindowInto(w)
	return w, nil
}
