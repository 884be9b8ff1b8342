package flate

import (
	"bytes"
	stdflate "compress/flate"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/bitio"
)

// stdCompress produces a raw DEFLATE stream with the standard library.
func stdCompress(t *testing.T, data []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := stdflate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func textData(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"alpha", "beta", "gamma", "delta", "ACGTACGT", "quality"}
	var b bytes.Buffer
	for b.Len() < n {
		b.WriteString(words[rng.Intn(len(words))])
		b.WriteByte(" \n"[rng.Intn(2)])
	}
	return b.Bytes()[:n]
}

func TestDecodeStdlibStreams(t *testing.T) {
	data := textData(300_000, 1)
	for _, level := range []int{1, 6, 9, stdflate.HuffmanOnly} {
		payload := stdCompress(t, data, level)
		got, err := DecompressAll(payload, 0)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("level %d: mismatch", level)
		}
	}
}

func TestDecodeStoredStream(t *testing.T) {
	data := textData(200_000, 2) // > 64 KiB forces multiple stored blocks
	payload := stdCompress(t, data, 0)
	got, spans, err := DecompressRecorded(payload, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
	sawStored := false
	for _, s := range spans {
		if s.Event.Type == Stored {
			sawStored = true
		}
	}
	if !sawStored {
		t.Fatal("expected stored blocks")
	}
}

func TestBlockSpansContiguous(t *testing.T) {
	data := textData(400_000, 3)
	payload := stdCompress(t, data, 6)
	out, spans, err := DecompressRecorded(payload, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans")
	}
	if spans[0].Event.StartBit != 0 {
		t.Fatal("first block must start at bit 0")
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Event.StartBit != spans[i-1].EndBit {
			t.Fatalf("bit gap at block %d", i)
		}
		if spans[i].OutStart != spans[i-1].OutEnd {
			t.Fatalf("output gap at block %d", i)
		}
	}
	if spans[len(spans)-1].OutEnd != int64(len(out)) {
		t.Fatal("spans do not cover output")
	}
	if !spans[len(spans)-1].Event.Final {
		t.Fatal("last span must be final")
	}
}

func TestEmptyStream(t *testing.T) {
	payload := stdCompress(t, nil, 6)
	got, err := DecompressAll(payload, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

// fixedBlockWith hand-encodes literals as one fixed-Huffman block.
func fixedBlockWith(t *testing.T, literals []byte, final bool) []byte {
	t.Helper()
	toks := make([]tok, len(literals))
	for i, b := range literals {
		toks[i].lit = b
	}
	return fixedBlock(toks, final)
}

// tok is one hand-placed DEFLATE token: a literal when length is 0,
// else a match of length cells at distance dist.
type tok struct {
	lit          byte
	length, dist int
}

// fixedBlock encodes toks and an end-of-block code as one block with
// the fixed Huffman codes (RFC 1951 3.2.6), so a test decides every
// literal, length and distance the decoder sees.
func fixedBlock(toks []tok, final bool) []byte {
	w := bitio.NewWriter(4*len(toks) + 8)
	if final {
		w.WriteBits(1, 1)
	} else {
		w.WriteBits(0, 1)
	}
	w.WriteBits(1, 2) // fixed
	// Huffman codes go MSB-first, the reverse of the bit order.
	code := func(v uint32, n uint) {
		var r uint32
		for i := uint(0); i < n; i++ {
			r = r<<1 | (v>>i)&1
		}
		w.WriteBits(r, n)
	}
	sym := func(s int) {
		switch {
		case s < 144:
			code(0x30+uint32(s), 8)
		case s < 256:
			code(0x190+uint32(s-144), 9)
		case s < 280:
			code(uint32(s-256), 7)
		default:
			code(0xc0+uint32(s-280), 8)
		}
	}
	for _, tk := range toks {
		if tk.length == 0 {
			sym(int(tk.lit))
			continue
		}
		i := len(lengthBase) - 1
		for int(lengthBase[i]) > tk.length {
			i--
		}
		sym(257 + i)
		w.WriteBits(uint32(tk.length-int(lengthBase[i])), uint(lengthExtra[i]))
		j := len(distBase) - 1
		for int(distBase[j]) > tk.dist {
			j--
		}
		code(uint32(j), 5)
		w.WriteBits(uint32(tk.dist-int(distBase[j])), uint(distExtra[j]))
	}
	sym(256)
	return w.Bytes()
}

func TestHandCraftedFixedBlock(t *testing.T) {
	payload := fixedBlockWith(t, []byte("Hello"), true)
	got, err := DecompressAll(payload, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "Hello" {
		t.Fatalf("got %q", got)
	}
}

func TestValidateRejectsFinalBlock(t *testing.T) {
	payload := fixedBlockWith(t, []byte("Hello"), true)
	dec := NewDecoder(Options{Validate: true})
	var sink CountingSink
	_, err := dec.DecodeBlock(bitio.NewReader(payload), &sink)
	if !errors.Is(err, ErrFinalBlock) {
		t.Fatalf("want ErrFinalBlock, got %v", err)
	}
	// AllowFinal overrides (block is still too small, so relax sizes).
	dec = NewDecoder(Options{Validate: true, AllowFinal: true, MinBlockOutput: 1})
	final, err := dec.DecodeBlock(bitio.NewReader(payload), &sink)
	if err != nil || !final {
		t.Fatalf("AllowFinal: final=%v err=%v", final, err)
	}
}

func TestValidateRejectsNonASCII(t *testing.T) {
	payload := fixedBlockWith(t, []byte{'A', 7, 'B'}, false)
	dec := NewDecoder(Options{Validate: true, MinBlockOutput: 1})
	var sink CountingSink
	if _, err := dec.DecodeBlock(bitio.NewReader(payload), &sink); !errors.Is(err, ErrNonASCII) {
		t.Fatalf("want ErrNonASCII, got %v", err)
	}
}

func TestValidateBlockSizeBounds(t *testing.T) {
	small := fixedBlockWith(t, []byte("tiny"), false)
	dec := NewDecoder(Options{Validate: true}) // default min 1 KiB
	var sink CountingSink
	if _, err := dec.DecodeBlock(bitio.NewReader(small), &sink); !errors.Is(err, ErrBlockTooSmall) {
		t.Fatalf("want ErrBlockTooSmall, got %v", err)
	}

	big := fixedBlockWith(t, bytes.Repeat([]byte{'A'}, 3000), false)
	dec = NewDecoder(Options{Validate: true, MaxBlockOutput: 2000, MinBlockOutput: 1})
	if _, err := dec.DecodeBlock(bitio.NewReader(big), &sink); !errors.Is(err, ErrBlockTooLarge) {
		t.Fatalf("want ErrBlockTooLarge, got %v", err)
	}
}

func TestInvalidBlockType(t *testing.T) {
	w := bitio.NewWriter(4)
	w.WriteBits(0, 1)
	w.WriteBits(3, 2) // BTYPE=11 invalid
	dec := NewDecoder(Options{})
	var sink CountingSink
	if _, err := dec.DecodeBlock(bitio.NewReader(w.Bytes()), &sink); !errors.Is(err, ErrBadBlockType) {
		t.Fatalf("want ErrBadBlockType, got %v", err)
	}
}

func TestStoredLenMismatch(t *testing.T) {
	w := bitio.NewWriter(16)
	w.WriteBits(0, 1)
	w.WriteBits(0, 2) // stored
	w.AlignByte()
	w.WriteBits(5, 16)
	w.WriteBits(1234, 16) // not ^5
	dec := NewDecoder(Options{})
	var sink CountingSink
	if _, err := dec.DecodeBlock(bitio.NewReader(w.Bytes()), &sink); !errors.Is(err, ErrStoredLenMismatch) {
		t.Fatalf("want ErrStoredLenMismatch, got %v", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	data := textData(50_000, 4)
	payload := stdCompress(t, data, 6)
	for _, cut := range []int{1, len(payload) / 4, len(payload) / 2, len(payload) - 1} {
		if _, err := DecompressAll(payload[:cut], 0); err == nil {
			t.Fatalf("cut %d: expected error", cut)
		}
	}
}

func TestDanglingBackReference(t *testing.T) {
	// A match at the very start of a stream (no history) must be
	// rejected by ByteSink. Craft: fixed block, match len 3 dist 1 as
	// first token. Length sym 257 => 7-bit code 1. Dist sym 0 => 5-bit
	// code 0.
	w := bitio.NewWriter(8)
	w.WriteBits(1, 1) // final
	w.WriteBits(1, 2) // fixed
	rev := func(v uint32, n uint) uint32 {
		var r uint32
		for i := uint(0); i < n; i++ {
			r = r<<1 | (v>>i)&1
		}
		return r
	}
	w.WriteBits(rev(1, 7), 7) // litlen 257: code 0000001
	w.WriteBits(rev(0, 5), 5) // dist 0 (=1)
	w.WriteBits(rev(0, 7), 7) // end of block

	// DecompressAll tracks the stream start in the decoder itself.
	if _, err := DecompressAll(w.Bytes(), 0); !errors.Is(err, ErrDistanceTooFar) {
		t.Fatalf("want ErrDistanceTooFar, got %v", err)
	}
	// A bare ByteSink (decoder not tracking) must still catch it.
	dec := NewDecoder(Options{})
	sink := &ByteSink{}
	if _, err := dec.DecodeBlock(bitio.NewReader(w.Bytes()), sink); !errors.Is(err, ErrDanglingRef) {
		t.Fatalf("want ErrDanglingRef, got %v", err)
	}
}

func TestSetTrackStartRejectsEarlyRef(t *testing.T) {
	// Same stream, decoded with a raw Decoder + TrackStart: the
	// decoder itself must reject the reference.
	w := bitio.NewWriter(8)
	w.WriteBits(1, 1)
	w.WriteBits(1, 2)
	rev := func(v uint32, n uint) uint32 {
		var r uint32
		for i := uint(0); i < n; i++ {
			r = r<<1 | (v>>i)&1
		}
		return r
	}
	w.WriteBits(rev(1, 7), 7)
	w.WriteBits(rev(0, 5), 5)
	w.WriteBits(rev(0, 7), 7)
	dec := NewDecoder(Options{})
	dec.SetTrackStart(true)
	var sink CountingSink
	if _, err := dec.DecodeBlock(bitio.NewReader(w.Bytes()), &sink); !errors.Is(err, ErrDistanceTooFar) {
		t.Fatalf("want ErrDistanceTooFar, got %v", err)
	}
}

func TestCountingSinkAverages(t *testing.T) {
	var c CountingSink
	_ = c.Literal('A')
	_ = c.Match(10, 100)
	_ = c.Match(20, 300)
	if c.Bytes != 31 || c.Literals != 1 || c.Matches != 2 {
		t.Fatalf("counts: %+v", c)
	}
	if c.AvgMatchLen() != 15 {
		t.Fatalf("avg len %f", c.AvgMatchLen())
	}
	if c.AvgMatchDist() != 200 {
		t.Fatalf("avg dist %f", c.AvgMatchDist())
	}
	var empty CountingSink
	if empty.AvgMatchLen() != 0 || empty.AvgMatchDist() != 0 {
		t.Fatal("empty averages must be 0")
	}
}

func TestVisitorStop(t *testing.T) {
	data := textData(100_000, 5)
	payload := stdCompress(t, data, 6)
	dec := NewDecoder(Options{})
	stopper := &stopAfterN{n: 1000}
	err := dec.DecodeStream(bitio.NewReader(payload), stopper)
	if err != nil {
		t.Fatalf("Stop must be swallowed by DecodeStream: %v", err)
	}
	if stopper.seen < 1000 {
		t.Fatalf("saw %d bytes", stopper.seen)
	}
}

type stopAfterN struct {
	n    int
	seen int
}

func (s *stopAfterN) BlockStart(BlockEvent) error { return nil }
func (s *stopAfterN) Literal(byte) error {
	s.seen++
	if s.seen >= s.n {
		return Stop
	}
	return nil
}
func (s *stopAfterN) Match(l, d int) error {
	s.seen += l
	if s.seen >= s.n {
		return Stop
	}
	return nil
}
func (s *stopAfterN) BlockEnd(int64) error { return nil }

func TestASCIIByteTable(t *testing.T) {
	for b := 0; b < 256; b++ {
		want := (b >= 32 && b < 127) || b == '\t' || b == '\n' || b == '\r'
		if got := ASCIIByte(byte(b)); got != want {
			t.Fatalf("byte %d: got %v want %v", b, got, want)
		}
	}
}

func TestBlockTypeString(t *testing.T) {
	cases := map[BlockType]string{Stored: "stored", Fixed: "fixed", Dynamic: "dynamic", BlockType(3): "invalid"}
	for bt, want := range cases {
		if bt.String() != want {
			t.Fatalf("%d: got %s", bt, bt.String())
		}
	}
}

// cancelOnFirst sets cancel on the first token it sees (a plain
// Visitor, so the decoder takes the scalar path through it).
type cancelOnFirst struct {
	s      *ByteSink
	cancel *atomic.Bool
}

func (c cancelOnFirst) BlockStart(ev BlockEvent) error { return c.s.BlockStart(ev) }
func (c cancelOnFirst) BlockEnd(bit int64) error       { return c.s.BlockEnd(bit) }
func (c cancelOnFirst) Literal(b byte) error           { c.cancel.Store(true); return c.s.Literal(b) }
func (c cancelOnFirst) Match(l, d int) error           { c.cancel.Store(true); return c.s.Match(l, d) }

// TestCancelStopsAtBlockBoundary: a Cancel flag set mid-block fails the
// decode at the next block boundary, with the block in progress fully
// decoded.
func TestCancelStopsAtBlockBoundary(t *testing.T) {
	data := textData(300_000, 3)
	payload := stdCompress(t, data, 6)
	_, blocks, err := DecompressRecorded(payload, 0, true)
	if err != nil || len(blocks) < 2 {
		t.Fatalf("%d blocks, err %v", len(blocks), err)
	}
	var cancel atomic.Bool
	sink := &ByteSink{}
	sink.Cancel = &cancel
	r, _ := bitio.NewReaderAt(payload, 0)
	dec := NewDecoder(Options{})
	if _, err := dec.DecodeBlocks(r, cancelOnFirst{sink, &cancel}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err %v, want ErrCanceled", err)
	}
	if first := blocks[0].OutEnd; !bytes.Equal(sink.Out, data[:first]) {
		t.Fatalf("decoded %d bytes before the cancel, want the first block's %d", len(sink.Out), first)
	}
}
