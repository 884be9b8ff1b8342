package flate

import (
	"bytes"
	stdflate "compress/flate"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitio"
	"repro/internal/deflate"
	"repro/internal/dna"
)

// This file pins the one fast kernel to the scalar reference loop. A
// single harness (checkParity) decodes a case twice — once with the
// fast loop, once with Options.NoFast — through each of the four window
// sinks the kernel serves, Linear and Sliding over byte and uint16
// cells, and requires the two runs to agree on every observable: cells,
// total, block spans, halt position, end bit, finality and error.

// parityCase is one fast==scalar comparison: a stream, where decoding
// starts, and how the decode is told to halt.
type parityCase struct {
	name    string
	payload []byte
	plain   []byte    // the stream's decoded bytes
	start   BlockSpan // where decoding starts (zero: the stream start)
	// seeded gives the sinks a WindowSize history before start: the
	// true bytes (zero-padded) for byte cells, U_0..U_32767 for uint16
	// cells. Unseeded cases start at the stream start with
	// SetTrackStart, so a reference before the start must fail.
	seeded  bool
	limit   int64
	stopBit int64
}

// parityOutcome is everything a decode leaves observable.
type parityOutcome[E Cell] struct {
	cells     []E // Linear: the output; Sliding: the trailing window
	total     int64
	blocks    []BlockSpan
	stoppedAt int64
	endBit    int64
	final     bool
	err       error
}

// seedCells renders a case's history as WindowSize cells of E.
func seedCells[E Cell](c parityCase) []E {
	cells := make([]E, WindowSize, WindowSize+len(c.plain))
	switch s := any(cells).(type) {
	case []byte:
		off := c.start.OutStart
		lo := max(off-WindowSize, 0)
		copy(s[WindowSize-(off-lo):], c.plain[lo:off])
	case []uint16:
		for j := range s {
			s[j] = uint16(256 + j) // U_j: no byte value is known
		}
	}
	return cells
}

// decodeCase runs c through a Linear or Sliding sink over E.
func decodeCase[E Cell](c parityCase, sliding, noFast bool) parityOutcome[E] {
	r, err := bitio.NewReaderAt(c.payload, c.start.Event.StartBit)
	if err != nil {
		return parityOutcome[E]{err: err}
	}
	dec := NewDecoder(Options{NoFast: noFast})
	var hist []E
	if c.seeded {
		hist = seedCells[E](c)
	} else {
		dec.SetTrackStart(true)
	}
	var (
		v     Visitor
		ctl   *Control
		cells func() []E
		n     func() int64
	)
	if sliding {
		s := &Sliding[E]{Buf: make([]E, WindowSize, SlidingCap)}
		copy(s.Buf, hist)
		v, ctl, cells, n = s, &s.Control, s.Window, s.Len
	} else {
		s := &Linear[E]{Out: hist, Prefix: len(hist)}
		v, ctl, cells, n = s, &s.Control, s.Output, s.Len
	}
	ctl.Limit, ctl.StopBit = c.limit, c.stopBit
	ctl.RecordBlocks()
	final, err := dec.DecodeBlocks(r, v)
	return parityOutcome[E]{
		cells:     slices.Clone(cells()),
		total:     n(),
		blocks:    ctl.Blocks,
		stoppedAt: ctl.StoppedAt,
		endBit:    ctl.EndBit(r),
		final:     final,
		err:       err,
	}
}

// mismatch describes the first difference between two outcomes.
func (o parityOutcome[E]) mismatch(p parityOutcome[E]) string {
	switch {
	case (o.err == nil) != (p.err == nil) || o.err != nil && o.err.Error() != p.err.Error():
		return fmt.Sprintf("error %v vs %v", o.err, p.err)
	case o.total != p.total:
		return fmt.Sprintf("total %d vs %d", o.total, p.total)
	case !slices.Equal(o.cells, p.cells):
		return fmt.Sprintf("cells differ (%d vs %d)", len(o.cells), len(p.cells))
	case !slices.Equal(o.blocks, p.blocks):
		return fmt.Sprintf("block spans differ (%d vs %d)", len(o.blocks), len(p.blocks))
	case o.stoppedAt != p.stoppedAt:
		return fmt.Sprintf("StoppedAt %d vs %d", o.stoppedAt, p.stoppedAt)
	case o.err == nil && o.endBit != p.endBit:
		return fmt.Sprintf("end bit %d vs %d", o.endBit, p.endBit)
	case o.final != p.final:
		return fmt.Sprintf("final %v vs %v", o.final, p.final)
	}
	return ""
}

// checkParity decodes c fast and scalar through one sink shape and
// reports any difference. A full byte-cell decode must also reproduce
// the stream's bytes.
func checkParity[E Cell](t testing.TB, c parityCase, sliding bool) {
	t.Helper()
	fast := decodeCase[E](c, sliding, false)
	scalar := decodeCase[E](c, sliding, true)
	shape := fmt.Sprintf("Linear[%T]", *new(E))
	if sliding {
		shape = fmt.Sprintf("Sliding[%T]", *new(E))
	}
	if d := fast.mismatch(scalar); d != "" {
		t.Fatalf("%s %s: fast/scalar %s", shape, c.name, d)
	}
	if b, ok := any(fast.cells).([]byte); ok && !sliding && fast.err == nil && fast.final && c.limit == 0 {
		if want := c.plain[c.start.OutStart:]; !bytes.Equal(b, want) {
			t.Fatalf("%s %s: output differs from the original: %d vs %d bytes", shape, c.name, len(b), len(want))
		}
	}
}

// runParity checks every case through all four sink shapes.
func runParity(t testing.TB, cases []parityCase) {
	t.Helper()
	for _, c := range cases {
		checkParity[byte](t, c, false)
		checkParity[byte](t, c, true)
		checkParity[uint16](t, c, false)
		checkParity[uint16](t, c, true)
	}
}

// corpus is one compressed stream with its block map.
type corpus struct {
	name    string
	payload []byte
	plain   []byte
	spans   []BlockSpan
}

func newCorpus(t testing.TB, name string, payload []byte) corpus {
	t.Helper()
	plain, spans, err := DecompressRecorded(payload, 0, true)
	if err != nil {
		t.Fatalf("%s: reference decode: %v", name, err)
	}
	return corpus{name, payload, plain, spans}
}

func stdCorpus(t *testing.T, data []byte, level int) corpus {
	t.Helper()
	return newCorpus(t, fmt.Sprintf("stdlib-%d", level), stdCompress(t, data, level))
}

func repoCorpus(t *testing.T, data []byte, level int) corpus {
	t.Helper()
	payload, err := deflate.Compress(data, level)
	if err != nil {
		t.Fatal(err)
	}
	return newCorpus(t, fmt.Sprintf("deflate-%d", level), payload)
}

// from returns a case decoding cp from block k with a seeded history,
// or from the stream start with SetTrackStart when k < 0.
func (cp corpus) from(k int) parityCase {
	c := parityCase{payload: cp.payload, plain: cp.plain, name: cp.name + " from start"}
	if k >= 0 {
		c.start, c.seeded = cp.spans[k], true
		c.name = fmt.Sprintf("%s from block %d", cp.name, k)
	}
	return c
}

// TestFastScalarParityLevels pins the fast loop to the scalar loop at
// every compression level (0 = stored blocks, HuffmanOnly =
// literal-dense fixed-style trees), from the stream start and from
// mid-stream blocks, on stdlib and on this repository's own streams.
func TestFastScalarParityLevels(t *testing.T) {
	var corpora []corpus
	text := textData(200_000, 71)
	for _, level := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, stdflate.HuffmanOnly} {
		corpora = append(corpora, stdCorpus(t, text, level))
	}
	genome := dna.Random(400_000, 31)
	for _, level := range []int{1, 6, 9} {
		corpora = append(corpora, repoCorpus(t, genome, level))
	}
	var cases []parityCase
	for _, cp := range corpora {
		cases = append(cases, cp.from(-1), cp.from(0))
		for _, k := range []int{1, len(cp.spans) / 2} {
			if k < len(cp.spans) {
				cases = append(cases, cp.from(k))
			}
		}
	}
	runParity(t, cases)
}

// TestFastScalarParityRandomInputs covers input shapes that stress
// different table layouts: incompressible bytes (literal-heavy,
// near-uniform code lengths), long runs (overlapping matches), and
// tiny inputs that finish inside the < 48-bit tail.
func TestFastScalarParityRandomInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	shapes := []func(n int) []byte{
		func(n int) []byte { // incompressible
			b := make([]byte, n)
			rng.Read(b)
			return b
		},
		func(n int) []byte { // RLE-style runs of varying period
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(i / (1 + i%7) % 251)
			}
			return b
		},
		func(n int) []byte { // skewed alphabet -> short literal codes
			b := make([]byte, n)
			for i := range b {
				b[i] = "eetta o"[rng.Intn(7)]
			}
			return b
		},
	}
	var cases []parityCase
	for si, shape := range shapes {
		for _, n := range []int{0, 1, 2, 3, 7, 300, 65_000} {
			data := shape(n)
			for _, level := range []int{1, 6, 9} {
				c := stdCorpus(t, data, level).from(-1)
				c.name = fmt.Sprintf("shape %d n=%d level=%d", si, n, level)
				cases = append(cases, c)
			}
		}
	}
	runParity(t, cases)
}

// periodicLengths are the match lengths the periodic cases use: each
// side of the kernel's one- and two-step over-copy and of the longer
// 8-cell steps, up to DEFLATE's maximum.
var periodicLengths = []int{3, 7, 8, 9, 15, 16, 17, 24, 25, 100, 249, 256, 257, MaxMatch}

// distinct is n distinct literals.
func distinct(n int) []tok {
	toks := make([]tok, n, n+1)
	for i := range toks {
		toks[i].lit = byte('a' + i)
	}
	return toks
}

// periodicRun is p distinct literals and one match of length cells at
// distance p: a run of period p, the shape whose distance straddles
// the kernel's 8-cell over-copy threshold.
func periodicRun(p, length int) []tok {
	return append(distinct(p), tok{length: length, dist: p})
}

// leadIn is a period-16 run decoding to n >= 19 bytes, so the token
// after it starts at output offset n.
func leadIn(n int) []tok {
	toks := distinct(16)
	for rem := n - 16; rem > 0; {
		k := min(rem, MaxMatch)
		if rem-k > 0 && rem-k < 3 {
			k = rem - 3
		}
		toks = append(toks, tok{length: k, dist: 16})
		rem -= k
	}
	return toks
}

// expand returns the bytes toks decode to.
func expand(toks []tok) []byte {
	var out []byte
	for _, tk := range toks {
		if tk.length == 0 {
			out = append(out, tk.lit)
		}
		for i := 0; i < tk.length; i++ {
			out = append(out, out[len(out)-tk.dist])
		}
	}
	return out
}

// TestFastScalarParityPeriodic pins runs of period 1-16 to the scalar
// loop, each ending exactly at a sink's write bound:
//   - a Limit at the match's last cell (and one before it), with a
//     literal and a second run after it, so cells an over-copy wrote
//     past the first match's end are overwritten and checked;
//   - a stream whose output ends with the match, which must also
//     decode into its exact ISIZE presize without growing it;
//   - the longest matches starting where the kernel last may before a
//     sink's capacity bound, at maxW-1: offset FastSlack+1 in a Linear
//     sink grown from empty (its second capacity, 2*FastSlack), and
//     offset WindowSize-9 in a Sliding sink (its slideAt-9 cell), and
//     4 and 8 cells later, where the kernel must stop first.
func TestFastScalarParityPeriodic(t *testing.T) {
	var cases []parityCase
	for p := 1; p <= 16; p++ {
		for _, length := range periodicLengths {
			toks := periodicRun(p, length)
			name := fmt.Sprintf("period %d length %d", p, length)
			payload, plain := fixedBlock(toks, true), expand(toks)
			got, _, err := DecompressSized(payload, len(plain))
			if err != nil || !bytes.Equal(got, plain) || cap(got) != len(plain)+FastSlack {
				t.Fatalf("%s: DecompressSized err=%v, output equal=%v, cap %d want %d (no growth)",
					name, err, bytes.Equal(got, plain), cap(got), len(plain)+FastSlack)
			}
			cases = append(cases, newCorpus(t, name, payload).from(-1))

			toks = append(toks, tok{lit: '#'}, tok{length: length, dist: p + 1})
			cp := newCorpus(t, name+" then more", fixedBlock(toks, true))
			for _, base := range []parityCase{cp.from(-1), cp.from(0)} {
				for _, limit := range []int64{0, int64(p + length), int64(p + length - 1)} {
					c := base
					c.limit = limit
					c.name = fmt.Sprintf("%s limit %d", base.name, limit)
					cases = append(cases, c)
				}
			}
		}
		for _, at := range []int{FastSlack + 1, WindowSize - 9, WindowSize - 5, WindowSize - 1} {
			for _, length := range []int{257, MaxMatch} {
				toks := append(leadIn(at), tok{length: length, dist: p})
				// Trailing literals keep fastMinBits buffered past the match.
				for i := 0; i < 8; i++ {
					toks = append(toks, tok{lit: '.'})
				}
				cp := newCorpus(t, fmt.Sprintf("period %d length %d at %d", p, length, at), fixedBlock(toks, true))
				cases = append(cases, cp.from(-1), cp.from(0))
			}
		}
	}
	runParity(t, cases)
}

// TestFastKernelWriteBound runs the kernel over a buffer exactly as
// long as its contract asks, len(out) = maxW-1+MaxMatch+7, with every
// periodic match starting at maxW-1: an over-copy that wrote past the
// bound would panic.
func TestFastKernelWriteBound(t *testing.T) {
	t.Run("byte", writeBound[byte])
	t.Run("uint16", writeBound[uint16])
}

func writeBound[E Cell](t *testing.T) {
	lit, dist := fixedFastTables()
	for p := 1; p <= 16; p++ {
		for _, length := range periodicLengths {
			toks := periodicRun(p, length)
			plain := expand(toks)
			// Trailing literals keep fastMinBits buffered past the match.
			for i := 0; i < 8; i++ {
				toks = append(toks, tok{lit: '.'})
			}
			r, err := bitio.NewReaderAt(fixedBlock(toks, true), 3) // past the block header
			if err != nil {
				t.Fatal(err)
			}
			maxW := p + 1
			out := make([]E, maxW-1+MaxMatch+7)
			w, st := decodeFast(r, lit, dist, out, 0, maxW, 0)
			if w != len(plain) || st != fastMore {
				t.Fatalf("period %d length %d: kernel stopped at %d (status %d), want %d", p, length, w, st, len(plain))
			}
			for i, b := range plain {
				if out[i] != E(b) {
					t.Fatalf("period %d length %d: cell %d is %d, want %d", p, length, i, out[i], b)
				}
			}
		}
	}
}

// TestFastScalarParityHalts checks that Limit and StopBit halts land on
// the same cell and bit on both paths: limits of 1, 2 and 3 cells
// (inside a packed literal pair), in the middle of a match, around one
// window, around the sliding sink's compaction point and past several
// compactions, and StopBit halts on and between block starts.
func TestFastScalarParityHalts(t *testing.T) {
	corpora := []corpus{
		stdCorpus(t, textData(300_000, 73), 6),
		repoCorpus(t, dna.Random(500_000, 33), 6),
	}
	var cases []parityCase
	for _, cp := range corpora {
		if len(cp.spans) < 3 {
			t.Fatalf("%s: %d blocks, want >= 3", cp.name, len(cp.spans))
		}
		last := cp.spans[len(cp.spans)-1]
		for _, base := range []parityCase{cp.from(-1), cp.from(1)} {
			limits := []int64{0, 1, 2, 3, 7, 100, midMatch(t, base),
				WindowSize - 1, WindowSize, WindowSize + 1, WindowSize + 3,
				slideAt, slideAt + 7, 5*WindowSize + 11,
				150_000, 299_999, 300_000, 400_000}
			for _, limit := range limits {
				c := base
				c.limit = limit
				c.name = fmt.Sprintf("%s limit %d", base.name, limit)
				cases = append(cases, c)
			}
			// On a block start, between block starts, and one bit past
			// the first block's start; alone and behind an earlier Limit.
			from := base.start.Event.StartBit
			for _, stop := range []int64{last.Event.StartBit, last.Event.StartBit - 5, from + 1} {
				for _, limit := range []int64{0, (last.OutStart - base.start.OutStart) / 2} {
					c := base
					c.stopBit, c.limit = stop, limit
					c.name = fmt.Sprintf("%s stop bit %d limit %d", base.name, stop, limit)
					cases = append(cases, c)
				}
			}
		}
	}
	runParity(t, cases)
}

// matchProbe finds an output offset inside a match.
type matchProbe struct {
	n, at int64
}

func (m *matchProbe) BlockStart(BlockEvent) error { return nil }
func (m *matchProbe) Literal(byte) error          { m.n++; return nil }
func (m *matchProbe) Match(length, _ int) error {
	if m.at == 0 && length >= 4 && m.n > 1000 {
		m.at = m.n + int64(length)/2
		return Stop
	}
	m.n += int64(length)
	return nil
}
func (m *matchProbe) BlockEnd(int64) error { return nil }

// midMatch returns a limit that falls inside a match of c's decode.
func midMatch(t *testing.T, c parityCase) int64 {
	t.Helper()
	r, err := bitio.NewReaderAt(c.payload, c.start.Event.StartBit)
	if err != nil {
		t.Fatal(err)
	}
	var m matchProbe
	if err := NewDecoder(Options{}).DecodeStream(r, &m); err != nil || m.at == 0 {
		t.Fatalf("%s: no match to split (%v)", c.name, err)
	}
	return m.at
}

// FuzzFastScalarParity decodes stdlib-compressed fuzz bytes from a
// fuzzed block, with a fuzzed limit, stop bit and truncation, through
// all four sink shapes, and requires the fast loop to agree with the
// scalar one on cells, totals, spans and errors.
func FuzzFastScalarParity(f *testing.F) {
	f.Add([]byte("hello, hello, hello world"), uint8(6), uint8(0), uint32(0), uint32(0), uint16(0))
	f.Add(textData(20_000, 9), uint8(1), uint8(1), uint32(5000), uint32(0), uint16(0))
	f.Add(textData(70_000, 10), uint8(9), uint8(2), uint32(0), uint32(3000), uint16(0))
	f.Add(bytes.Repeat([]byte("ab"), 9000), uint8(0), uint8(0), uint32(17), uint32(0), uint16(40))
	f.Fuzz(func(t *testing.T, data []byte, level, block uint8, limit, stop uint32, cut uint16) {
		cp := stdCorpus(t, data, int(level%12)-2) // levels -2..9
		c := cp.from(int(block)%(len(cp.spans)+1) - 1)
		c.limit = int64(limit) % int64(len(data)+2)
		if stop > 0 {
			c.stopBit = c.start.Event.StartBit + int64(stop)
		}
		if cut > 0 {
			c.payload = c.payload[:len(c.payload)-int(cut)%len(c.payload)]
		}
		runParity(t, []parityCase{c})
	})
}

// TestFastPrefixSeededChunk decodes a mid-stream block sequence with a
// seeded context prefix — the skip-mode chunk shape — and checks the
// fast loop resolves prefix back-references identically to scalar.
func TestFastPrefixSeededChunk(t *testing.T) {
	data := textData(250_000, 74)
	payload := stdCompress(t, data, 6)
	_, spans, err := DecompressRecorded(payload, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a block boundary past the first window so the chunk needs
	// real history.
	var start BlockSpan
	for _, sp := range spans {
		if sp.OutStart > WindowSize {
			start = sp
			break
		}
	}
	if start.OutStart == 0 {
		t.Skip("no block boundary past first window")
	}

	run := func(noFast bool) []byte {
		r, err := bitio.NewReaderAt(payload, start.Event.StartBit)
		if err != nil {
			t.Fatal(err)
		}
		sink := &ByteSink{}
		sink.Out = append(sink.Out, data[start.OutStart-WindowSize:start.OutStart]...)
		sink.Prefix = WindowSize
		dec := NewDecoder(Options{NoFast: noFast})
		if err := dec.DecodeStream(r, sink); err != nil {
			t.Fatalf("noFast=%v: %v", noFast, err)
		}
		return sink.Output()
	}
	fast, scalar := run(false), run(true)
	if !bytes.Equal(fast, scalar) {
		t.Fatalf("prefix chunk fast/scalar mismatch: %d vs %d bytes", len(fast), len(scalar))
	}
	if want := data[start.OutStart:]; !bytes.Equal(fast, want) {
		t.Fatalf("prefix chunk output wrong: %d vs %d bytes", len(fast), len(want))
	}
}

// TestFastErrorParity checks anomalous streams fail with the same
// canonical error whether the fast loop runs or not — the fast kernel
// must bail without consuming so the scalar loop reports the error.
func TestFastErrorParity(t *testing.T) {
	data := textData(50_000, 75)
	for _, level := range []int{1, 6, 9} {
		payload := stdCompress(t, data, level)
		// Truncations at many points, including mid-stream.
		for _, cut := range []int{len(payload) / 3, len(payload) / 2, len(payload) - 1} {
			for _, noFast := range []bool{false, true} {
				if _, err := (&testDecode{noFast: noFast}).run(payload[:cut]); err == nil {
					t.Fatalf("level %d cut %d noFast=%v: expected error", level, cut, noFast)
				}
			}
		}
	}
	// A match reaching before the stream start must yield
	// ErrDistanceTooFar on both paths (fixed block, dist 1 at offset 0).
	bad := fixedBlock([]tok{{length: 3, dist: 1}}, true)
	for _, noFast := range []bool{false, true} {
		_, err := (&testDecode{noFast: noFast, track: true}).run(bad)
		if !errors.Is(err, ErrDistanceTooFar) {
			t.Fatalf("noFast=%v: err = %v, want ErrDistanceTooFar", noFast, err)
		}
	}
}

type testDecode struct {
	noFast bool
	track  bool
}

func (td *testDecode) run(payload []byte) ([]byte, error) {
	r, err := bitio.NewReaderAt(payload, 0)
	if err != nil {
		return nil, err
	}
	sink := &ByteSink{}
	dec := NewDecoder(Options{NoFast: td.noFast})
	if td.track {
		dec.SetTrackStart(true)
	}
	if err := dec.DecodeStream(r, sink); err != nil {
		return nil, err
	}
	return sink.Out, nil
}
