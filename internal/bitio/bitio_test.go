package bitio

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReaderSequentialBits(t *testing.T) {
	// 0b10110100, 0b01100011 -> LSB-first bit sequence
	data := []byte{0xb4, 0x63}
	r := NewReader(data)
	want := []uint32{0, 0, 1, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 0}
	for i, wb := range want {
		got, err := r.Take(1)
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != wb {
			t.Fatalf("bit %d: got %d want %d", i, got, wb)
		}
	}
	if _, err := r.Take(1); !errors.Is(err, ErrUnderflow) {
		t.Fatal("expected underflow at end")
	}
}

func TestReaderMultiBitChunks(t *testing.T) {
	data := []byte{0xb4, 0x63}
	r := NewReader(data)
	v, err := r.Take(4)
	if err != nil || v != 0x4 {
		t.Fatalf("low nibble: %x err %v", v, err)
	}
	v, err = r.Take(4)
	if err != nil || v != 0xb {
		t.Fatalf("high nibble: %x err %v", v, err)
	}
	v, err = r.Take(8)
	if err != nil || v != 0x63 {
		t.Fatalf("second byte: %x err %v", v, err)
	}
}

func TestNewReaderAtOffsets(t *testing.T) {
	data := []byte{0xff, 0x00, 0xff}
	for off := int64(0); off <= 24; off++ {
		r, err := NewReaderAt(data, off)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if got := r.BitPos(); got != off {
			t.Fatalf("offset %d: BitPos %d", off, got)
		}
		if got := r.Len(); got != 24-off {
			t.Fatalf("offset %d: Len %d", off, got)
		}
	}
	if _, err := NewReaderAt(data, 25); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := NewReaderAt(data, -1); err == nil {
		t.Fatal("expected range error")
	}
}

func TestReaderAtMidByte(t *testing.T) {
	data := []byte{0b1010_1100}
	r, err := NewReaderAt(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Take(3)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0b011 { // bits 2,3,4 LSB-first: 1,1,0
		t.Fatalf("got %03b", v)
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	r := NewReader([]byte{0xa5})
	if r.Peek(4) != 0x5 {
		t.Fatal("peek low nibble")
	}
	if r.Peek(8) != 0xa5 {
		t.Fatal("peek full byte")
	}
	if r.BitPos() != 0 {
		t.Fatal("peek consumed bits")
	}
	if err := r.Drop(4); err != nil {
		t.Fatal(err)
	}
	if r.Peek(4) != 0xa {
		t.Fatal("after drop")
	}
}

func TestAlignByte(t *testing.T) {
	r := NewReader([]byte{0xff, 0x12})
	if _, err := r.Take(3); err != nil {
		t.Fatal(err)
	}
	if skip := r.AlignByte(); skip != 5 {
		t.Fatalf("skip %d, want 5", skip)
	}
	v, err := r.Take(8)
	if err != nil || v != 0x12 {
		t.Fatalf("aligned byte %x err %v", v, err)
	}
	// Aligning when already aligned is a no-op.
	if skip := r.AlignByte(); skip != 0 {
		t.Fatalf("second align skipped %d", skip)
	}
}

func TestReadBytes(t *testing.T) {
	src := []byte{1, 2, 3, 4, 5}
	r := NewReader(src)
	dst := make([]byte, 5)
	if err := r.ReadBytes(dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("mismatch")
	}
	// Unaligned read must fail.
	r = NewReader(src)
	if _, err := r.Take(1); err != nil {
		t.Fatal(err)
	}
	if err := r.ReadBytes(dst[:1]); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("want ErrUnaligned, got %v", err)
	}
	// Reading past the end must fail.
	r = NewReader(src)
	if err := r.ReadBytes(make([]byte, 6)); !errors.Is(err, ErrUnderflow) {
		t.Fatalf("want ErrUnderflow, got %v", err)
	}
}

func TestReset(t *testing.T) {
	data := []byte{0x12, 0x34, 0x56}
	r := NewReader(data)
	if _, err := r.Take(13); err != nil {
		t.Fatal(err)
	}
	if err := r.Reset(4); err != nil {
		t.Fatal(err)
	}
	v, err := r.Take(8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x41 { // bits 4..11 LSB-first: high nibble of 0x12 is 1, low nibble of 0x34 is 4
		t.Fatalf("got %#x want 0x41", v)
	}
	if err := r.Reset(100); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	type op struct {
		v uint32
		n uint
	}
	rng := rand.New(rand.NewSource(7))
	var ops []op
	w := NewWriter(64)
	for i := 0; i < 10_000; i++ {
		n := uint(1 + rng.Intn(24))
		v := rng.Uint32() & (1<<n - 1)
		ops = append(ops, op{v, n})
		w.WriteBits(v, n)
	}
	r := NewReader(w.Bytes())
	for i, o := range ops {
		got, err := r.Take(o.n)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if got != o.v {
			t.Fatalf("op %d: got %#x want %#x (n=%d)", i, got, o.v, o.n)
		}
	}
}

func TestWriterAlignAndBytes(t *testing.T) {
	w := NewWriter(16)
	w.WriteBits(0b101, 3)
	if pad := w.AlignByte(); pad != 5 {
		t.Fatalf("pad %d", pad)
	}
	if err := w.WriteBytes([]byte{0xAB, 0xCD}); err != nil {
		t.Fatal(err)
	}
	got := w.Bytes()
	want := []byte{0b0000_0101, 0xAB, 0xCD}
	if !bytes.Equal(got, want) {
		t.Fatalf("got % x want % x", got, want)
	}
	if w.BitLen() != 24 {
		t.Fatalf("BitLen %d", w.BitLen())
	}
}

func TestWriterUnalignedBytesRejected(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(1, 1)
	if err := w.WriteBytes([]byte{1}); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("want ErrUnaligned, got %v", err)
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0xff, 8)
	w.Reset()
	if w.BitLen() != 0 {
		t.Fatal("reset did not clear")
	}
	w.WriteBits(0x1, 1)
	if got := w.Bytes(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("got % x", got)
	}
}

// Property: writing any sequence of (value,width) pairs and reading it
// back yields the same values, regardless of widths.
func TestQuickRoundTrip(t *testing.T) {
	f := func(words []uint32, widths []uint8, startPad uint8) bool {
		if len(words) == 0 {
			return true
		}
		w := NewWriter(64)
		pad := uint(startPad % 8)
		w.WriteBits(0, pad) // stress non-zero phase
		type op struct {
			v uint32
			n uint
		}
		var ops []op
		for i, word := range words {
			n := uint(7) // default width when no widths provided
			if len(widths) > 0 {
				n = uint(widths[i%len(widths)]%32) + 1
			}
			v := word & (1<<n - 1)
			ops = append(ops, op{v, n})
			w.WriteBits(v, n)
		}
		r, err := NewReaderAt(w.Bytes(), int64(pad))
		if err != nil {
			return false
		}
		for _, o := range ops {
			got, err := r.Take(o.n)
			if err != nil || got != o.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRefillNearEOF pins the tail behavior of the bulk refill: for
// every start offset within the last 10 bytes of a buffer — including
// every mid-byte bit phase — BitPos/Len must stay exact, Peek must
// zero-fill past the end without over-reading, and the bit sequence
// must match a bit-at-a-time reference read. blockfind candidate
// confirmation near the end of a member depends on exactly this.
func TestRefillNearEOF(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, 64)
	rng.Read(data)
	total := int64(len(data)) * 8
	for off := total - 10*8; off <= total; off++ {
		r, err := NewReaderAt(data, off)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if got := r.BitPos(); got != off {
			t.Fatalf("offset %d: BitPos %d", off, got)
		}
		// Reference: extract bits directly from the byte slice.
		ref := func(pos int64) uint32 {
			if pos >= total {
				return 0
			}
			return uint32(data[pos/8]>>(pos%8)) & 1
		}
		// Peek in every width up to 32 at this position: high bits past
		// EOF must read as zero, and the position must not move.
		for w := uint(1); w <= 32; w++ {
			want := uint32(0)
			for b := uint(0); b < w; b++ {
				want |= ref(off+int64(b)) << b
			}
			if got := r.Peek(w); got != want {
				t.Fatalf("offset %d width %d: Peek %#x want %#x", off, w, got, want)
			}
			if got := r.BitPos(); got != off {
				t.Fatalf("offset %d width %d: Peek moved BitPos to %d", off, w, got)
			}
		}
		// Drain the tail with mixed-width Takes and verify each value
		// and every intermediate BitPos.
		pos := off
		for r.Len() > 0 {
			n := uint(1 + rng.Intn(13))
			if int64(n) > r.Len() {
				n = uint(r.Len())
			}
			want := uint32(0)
			for b := uint(0); b < n; b++ {
				want |= ref(pos+int64(b)) << b
			}
			got, err := r.Take(n)
			if err != nil {
				t.Fatalf("offset %d pos %d: Take(%d): %v", off, pos, n, err)
			}
			if got != want {
				t.Fatalf("offset %d pos %d: Take(%d) = %#x want %#x", off, pos, n, got, want)
			}
			pos += int64(n)
			if got := r.BitPos(); got != pos {
				t.Fatalf("offset %d: BitPos %d want %d", off, got, pos)
			}
		}
		if _, err := r.Take(1); !errors.Is(err, ErrUnderflow) {
			t.Fatalf("offset %d: want underflow at end, got %v", off, err)
		}
	}
}

// TestRefillPrimitives checks the fast-loop contract: after Refill,
// Bits() >= 56 away from EOF (and exactly the remaining count near
// it), Acc() exposes the same bits Peek reports, and Consume moves
// BitPos exactly like Drop. A Cursor driven alongside matches the
// Reader at every step, and committing it moves the Reader to it.
func TestRefillPrimitives(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 256)
	rng.Read(data)
	r := NewReader(data)
	c := r.Cursor()
	total := int64(len(data)) * 8
	for r.Len() > 0 {
		r.Refill()
		c = c.Refill(data)
		if rc := r.Cursor(); c != rc {
			t.Fatalf("BitPos %d: cursor %+v, reader's %+v", r.BitPos(), c, rc)
		}
		remaining := total - r.BitPos()
		if remaining >= 56 && r.Bits() < 56 {
			t.Fatalf("BitPos %d: Refill left only %d bits", r.BitPos(), r.Bits())
		}
		if remaining < 56 && int64(r.Bits()) != remaining {
			t.Fatalf("BitPos %d: Bits %d want %d at tail", r.BitPos(), r.Bits(), remaining)
		}
		if got, want := uint32(c.Acc())&0xffff, r.Peek(16); got != want {
			t.Fatalf("BitPos %d: Acc low bits %#x, Peek %#x", r.BitPos(), got, want)
		}
		n := uint(1 + rng.Intn(48))
		if n > r.Bits() {
			n = r.Bits()
		}
		before := r.BitPos()
		r.Consume(n)
		if got := r.BitPos(); got != before+int64(n) {
			t.Fatalf("Consume(%d) moved BitPos %d -> %d", n, before, got)
		}
		c = c.Consume(n)
	}
	r = NewReader(data)
	r.Commit(r.Cursor().Refill(data).Consume(13))
	if got, err := r.Take(8); err != nil || r.BitPos() != 21 || got != (uint32(data[1])>>5|uint32(data[2])<<3)&0xff {
		t.Fatalf("after Commit: Take(8) = %#x, %v at BitPos %d", got, err, r.BitPos())
	}
}

// TestRefillIdempotentTail covers the accumulator invariant the bulk
// load depends on: bits above Bits() are re-ORed by later refills, so
// interleaving Refill with byte-granular reads must stay exact right
// through the last 8 bytes.
func TestRefillIdempotentTail(t *testing.T) {
	data := []byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef, 0x10, 0x32}
	r := NewReader(data)
	r.Refill()
	// Consume down into the tail in 4-bit nibbles, refilling eagerly.
	want := []uint32{0x1, 0x0, 0x3, 0x2, 0x5, 0x4, 0x7, 0x6, 0x9, 0x8, 0xb, 0xa, 0xd, 0xc, 0xf, 0xe, 0x0, 0x1, 0x2, 0x3}
	for i, wv := range want {
		r.Refill()
		got, err := r.Take(4)
		if err != nil {
			t.Fatalf("nibble %d: %v", i, err)
		}
		if got != wv {
			t.Fatalf("nibble %d: got %#x want %#x", i, got, wv)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("expected exhausted reader, Len=%d", r.Len())
	}
}

func TestQuickReaderAtConsistency(t *testing.T) {
	// Reading k bits from offset o equals reading o+k bits from 0 and
	// discarding the first o.
	f := func(data []byte, off uint16) bool {
		if len(data) == 0 {
			return true
		}
		o := int64(off) % (int64(len(data)) * 8)
		r1, err := NewReaderAt(data, o)
		if err != nil {
			return false
		}
		r2 := NewReader(data)
		if err := r2.Drop(0); err != nil {
			return false
		}
		// Discard o bits one at a time (exercises refill paths).
		for i := int64(0); i < o; i++ {
			if _, err := r2.Take(1); err != nil {
				return false
			}
		}
		for r1.Len() > 0 {
			n := uint(7)
			if int64(n) > r1.Len() {
				n = uint(r1.Len())
			}
			a, err1 := r1.Take(n)
			b, err2 := r2.Take(n)
			if err1 != nil || err2 != nil || a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
