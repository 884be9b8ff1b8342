package flate

import (
	"errors"
	"sync/atomic"

	"repro/internal/bitio"
)

// Cell is the element type of a window sink. Exact decodes use byte;
// the symbolic pass-1 decode (internal/tracked) uses uint16, whose
// alphabet is the bytes plus the context symbols U_j. DEFLATE decoding
// is the same algorithm over either alphabet: literals widen to a cell,
// matches copy whole cells.
type Cell interface{ byte | uint16 }

// BlockSpan describes one decoded block: its bit extent in the
// compressed stream and byte extent in the output.
type BlockSpan struct {
	Event    BlockEvent
	EndBit   int64
	OutStart int64
	OutEnd   int64
}

// Control is the bookkeeping every window sink shares: the two ways a
// decode can be told to halt, and the optional per-block log.
type Control struct {
	// Limit, when > 0, stops decoding (with Stop) once the sink has
	// produced this many cells.
	Limit int64
	// StopBit, when > 0, stops cleanly (with Stop) before decoding a
	// block whose start bit is >= StopBit: the parallel engine decodes
	// exactly one chunk this way.
	StopBit int64
	// StoppedAt is the start bit of the block that triggered the StopBit
	// halt, or 0 when none did (a halt always lands past bit 0).
	StoppedAt int64
	// Cancel, when non-nil and set, fails the decode with ErrCanceled at
	// its next block boundary: how a scheduler abandons work nobody
	// waits for any more.
	Cancel *atomic.Bool
	// Blocks accumulates one span per decoded block once RecordBlocks
	// was called. Output offsets count produced cells; a seeded context
	// is excluded.
	Blocks []BlockSpan
	record bool
}

// RecordBlocks enables per-block span recording.
func (c *Control) RecordBlocks() { c.record = true }

// EndBit returns where a decode over this sink ended: after a StopBit
// halt, the halting block's start bit (the decoder has already read
// part of that block's header); otherwise r's position.
func (c *Control) EndBit(r *bitio.Reader) int64 {
	if c.StoppedAt > 0 {
		return c.StoppedAt
	}
	return r.BitPos()
}

// ErrCanceled is returned by a decode whose Control.Cancel was set.
var ErrCanceled = errors.New("flate: decode canceled")

func (c *Control) blockStart(ev BlockEvent, out int64) error {
	if c.Cancel != nil && c.Cancel.Load() {
		return ErrCanceled
	}
	if c.StopBit > 0 && ev.StartBit >= c.StopBit {
		c.StoppedAt = ev.StartBit
		return Stop
	}
	if c.record {
		c.Blocks = append(c.Blocks, BlockSpan{Event: ev, OutStart: out})
	}
	return nil
}

// blockEnd closes the open span. A BlockEnd with no recorded span (a
// visitor driven without a prior BlockStart) is a no-op rather than a
// panic: span recording only ever annotates blocks it saw open.
func (c *Control) blockEnd(nextBit, out int64) {
	if c.record && len(c.Blocks) > 0 {
		last := &c.Blocks[len(c.Blocks)-1]
		last.EndBit = nextBit
		last.OutEnd = out
	}
}

// reached reports Stop once out cells satisfy Limit.
func (c *Control) reached(out int64) error {
	if c.Limit > 0 && out >= c.Limit {
		return Stop
	}
	return nil
}

// appendMatch appends the length cells that start dist cells behind
// the end of buf. Overlapping copies (dist < length) must proceed cell
// by cell in stream order; this is the RLE-style idiom DEFLATE relies
// on.
func appendMatch[E Cell](buf []E, length, dist int) []E {
	src := len(buf) - dist
	if dist >= length {
		return append(buf, buf[src:src+length]...)
	}
	for i := 0; i < length; i++ {
		buf = append(buf, buf[src+i])
	}
	return buf
}

// Linear is the flat window sink: it materialises the whole decoded
// stream into Out. Back-references must land inside the cells already
// produced or inside a seeded context prefix (see Prefix). Over bytes
// (ByteSink) it is the "plain gunzip" consumer, and a mid-stream chunk
// whose 32 KiB window is already known decodes exactly by seeding it.
// Over uint16 (tracked.Sink) the prefix is the undetermined context
// U_0..U_32767 of the paper's symbolic decode.
type Linear[E Cell] struct {
	Out []E
	// Prefix marks the first Prefix cells of Out as seeded context (a
	// history window, not produced output). Back-references may reach
	// into it; Output() excludes it. Callers seed it by filling Out with
	// the window before decoding.
	Prefix int
	Control
}

// ByteSink is the exact flat sink.
type ByteSink = Linear[byte]

// Output returns the decoded cells, excluding any seeded context
// prefix. The slice aliases the sink's buffer.
func (s *Linear[E]) Output() []E { return s.Out[s.Prefix:] }

// Len returns the number of cells decoded so far.
func (s *Linear[E]) Len() int64 { return int64(len(s.Out) - s.Prefix) }

// ErrDanglingRef is returned when a match reaches before the first
// output byte — decoding a stream from its true start never does this.
var ErrDanglingRef = errors.New("flate: back-reference before output start")

func (s *Linear[E]) BlockStart(ev BlockEvent) error { return s.blockStart(ev, s.Len()) }

func (s *Linear[E]) Literal(b byte) error {
	s.Out = append(s.Out, E(b))
	return s.reached(s.Len())
}

func (s *Linear[E]) Match(length, dist int) error {
	if dist > len(s.Out) {
		return ErrDanglingRef
	}
	s.Out = appendMatch(s.Out, length, dist)
	return s.reached(s.Len())
}

// Stored implements StoredSink.
func (s *Linear[E]) Stored(b []byte) error {
	if s.Limit > 0 {
		b = b[:min(int64(len(b)), s.Limit-s.Len())]
	}
	s.Out = appendBytes(s.Out, b)
	return s.reached(s.Len())
}

// appendBytes appends b to dst, widening each byte to a cell.
func appendBytes[E Cell](dst []E, b []byte) []E {
	if d, ok := any(dst).([]byte); ok {
		return any(append(d, b...)).([]E)
	}
	for _, c := range b {
		dst = append(dst, E(c))
	}
	return dst
}

func (s *Linear[E]) BlockEnd(nextBit int64) error {
	s.blockEnd(nextBit, s.Len())
	return nil
}

// FastTokens implements FastTokenSink: tokens decode straight into the
// append buffer, growing capacity ahead of the kernel, with the Limit
// budget translated into a write bound so the decode stops on exactly
// the token the scalar loop would stop on.
func (s *Linear[E]) FastTokens(fc *FastCtx) (int64, bool, error) {
	n0 := len(s.Out)
	minSrc := 0
	if fc.Track {
		// dist > produced  <=>  src < len-at-call - produced-at-call;
		// with a seeded Prefix this floor is exactly the prefix size.
		minSrc = max(n0-int(fc.Produced), 0)
	}
	for {
		fc.R.Refill()
		if fc.R.Bits() < fastMinBits {
			return int64(len(s.Out) - n0), false, nil
		}
		if cap(s.Out)-len(s.Out) < FastSlack {
			s.grow()
		}
		w0 := len(s.Out)
		maxW := cap(s.Out) - FastSlack + 2
		if s.Limit > 0 {
			maxW = min(maxW, w0+int(s.Limit-s.Len()))
		}
		w, st := decodeFast(fc.R, fc.Lit, fc.Dist, s.Out[:cap(s.Out)], w0, maxW, minSrc)
		s.Out = s.Out[:w]
		switch {
		case s.Limit > 0 && s.Len() >= s.Limit:
			return int64(w - n0), false, Stop
		case st != fastMore:
			return int64(w - n0), st == fastEOB, nil
		}
	}
}

// grow at least doubles Out's capacity (append's 1.25x steps on large
// slices copied each cell ~4 times), stopping at the room a Limit can
// use. Presized sinks (cap >= len + FastSlack throughout) never get here.
func (s *Linear[E]) grow() {
	n := 2 * cap(s.Out)
	if s.Limit > 0 {
		n = min(n, s.Prefix+int(s.Limit)+FastSlack)
	}
	grown := make([]E, len(s.Out), max(n, len(s.Out)+FastSlack))
	copy(grown, s.Out)
	s.Out = grown
}

// DecompressAll decodes a whole DEFLATE stream (starting at bit offset
// startBit of data) into a byte slice. It applies normal gunzip rules:
// no validation-mode restrictions, back-references must stay within
// produced output.
func DecompressAll(data []byte, startBit int64) ([]byte, error) {
	out, _, err := DecompressRecorded(data, startBit, false)
	return out, err
}

// DecompressRecorded is DecompressAll with optional per-block span
// recording (used by tests and the chunk planner).
func DecompressRecorded(data []byte, startBit int64, record bool) ([]byte, []BlockSpan, error) {
	sink := &ByteSink{}
	if record {
		sink.RecordBlocks()
	}
	if _, err := decodeWhole(data, startBit, sink); err != nil {
		return nil, nil, err
	}
	return sink.Out, sink.Blocks, nil
}

// DecompressSized decodes a whole DEFLATE stream from the start of
// data into a buffer with room for sizeHint bytes, and returns the
// output and the bit just past the final block. The hint is capacity
// only: a wrong one costs growth (or unused room), never bytes.
func DecompressSized(data []byte, sizeHint int) ([]byte, int64, error) {
	sink := &ByteSink{}
	if sizeHint > 0 {
		sink.Out = make([]byte, 0, sizeHint+FastSlack)
	}
	endBit, err := decodeWhole(data, 0, sink)
	if err != nil {
		return nil, 0, err
	}
	return sink.Out, endBit, nil
}

// decodeWhole decodes the stream at startBit of data into sink under
// gunzip rules (no reference before the first output byte) and returns
// the bit just past its final block.
func decodeWhole(data []byte, startBit int64, sink *ByteSink) (int64, error) {
	r, err := bitio.NewReaderAt(data, startBit)
	if err != nil {
		return 0, err
	}
	dec := GetDecoder(Options{})
	defer PutDecoder(dec)
	dec.SetTrackStart(true)
	if err := dec.DecodeStream(r, sink); err != nil {
		return 0, err
	}
	return r.BitPos(), nil
}

// CountingSink discards output but tallies tokens and records the last
// block boundary: the one visitor for decodes that only count (block
// sync probes, block scans, statistics collection).
type CountingSink struct {
	Literals int64
	Matches  int64
	Bytes    int64
	// MatchLenSum and MatchDistSum allow computing the average match
	// length/offset (the paper's l_a and o_a).
	MatchLenSum  int64
	MatchDistSum int64
	BlocksSeen   int
	// Event is the last block's start event and EndBit the bit offset
	// just past its end-of-block symbol (0 until a block ends).
	Event  BlockEvent
	EndBit int64
}

func (c *CountingSink) BlockStart(ev BlockEvent) error { c.BlocksSeen++; c.Event = ev; return nil }
func (c *CountingSink) Literal(byte) error             { c.Literals++; c.Bytes++; return nil }
func (c *CountingSink) Match(length, dist int) error {
	c.Matches++
	c.Bytes += int64(length)
	c.MatchLenSum += int64(length)
	c.MatchDistSum += int64(dist)
	return nil
}
func (c *CountingSink) BlockEnd(nextBit int64) error { c.EndBit = nextBit; return nil }

// AvgMatchLen returns l_a, the mean match length (0 when no matches).
func (c *CountingSink) AvgMatchLen() float64 {
	if c.Matches == 0 {
		return 0
	}
	return float64(c.MatchLenSum) / float64(c.Matches)
}

// AvgMatchDist returns o_a, the mean match offset (0 when no matches).
func (c *CountingSink) AvgMatchDist() float64 {
	if c.Matches == 0 {
		return 0
	}
	return float64(c.MatchDistSum) / float64(c.Matches)
}
