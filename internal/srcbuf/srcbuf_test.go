package srcbuf

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// chunkReader yields at most n bytes per Read.
type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

func TestFillDiscardTracksBase(t *testing.T) {
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i)
	}
	w := New(&chunkReader{bytes.NewReader(data), 7}, 64, 2)
	defer w.Close()
	if err := w.Fill(100); err != nil {
		t.Fatal(err)
	}
	if w.Len() < 100 {
		t.Fatalf("Len = %d after Fill(100)", w.Len())
	}
	if !bytes.Equal(w.Bytes()[:100], data[:100]) {
		t.Fatal("window content mismatch")
	}
	w.Discard(37)
	if w.Base() != 37 {
		t.Fatalf("Base = %d, want 37", w.Base())
	}
	if w.Bytes()[0] != data[37] {
		t.Fatal("head byte wrong after Discard")
	}
	// Discard only consumes buffered bytes: fill up to the target
	// first (the pipeline always discards within decoded data).
	if err := w.Fill(1000 - 37); err != nil {
		t.Fatal(err)
	}
	w.DiscardTo(1000)
	if w.Base() != 1000 {
		t.Fatalf("Base = %d, want 1000", w.Base())
	}
	w.DiscardTo(500) // backwards is a no-op
	if w.Base() != 1000 {
		t.Fatalf("Base moved backwards to %d", w.Base())
	}
	if err := w.Fill(9000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), data[1000:]) {
		t.Fatal("tail mismatch after large fill")
	}
	// EOF is observed lazily: asking for one byte more than the stream
	// holds forces the terminal segment through.
	if err := w.Fill(w.Len() + 1); err != nil {
		t.Fatal(err)
	}
	if !w.EOF() {
		t.Fatal("EOF not reported after draining the source")
	}
}

func TestReadBytePeekAndEOF(t *testing.T) {
	w := New(bytes.NewReader([]byte("abc")), 2, 1)
	defer w.Close()
	p, err := w.Peek(2)
	if err != nil || string(p) != "ab" {
		t.Fatalf("Peek: %q, %v", p, err)
	}
	for _, want := range []byte("abc") {
		b, err := w.ReadByte()
		if err != nil || b != want {
			t.Fatalf("ReadByte: %c, %v (want %c)", b, err, want)
		}
	}
	if _, err := w.ReadByte(); err != io.EOF {
		t.Fatalf("ReadByte at end: %v", err)
	}
	if _, err := w.Peek(1); err != io.ErrUnexpectedEOF {
		t.Fatalf("Peek past end: %v", err)
	}
}

func TestSourceErrorSurfaced(t *testing.T) {
	boom := errors.New("boom")
	src := io.MultiReader(bytes.NewReader([]byte("xy")), &errReader{boom})
	w := New(src, 8, 1)
	defer w.Close()
	if err := w.Fill(2); err != nil {
		t.Fatal(err) // the two good bytes arrive error-free
	}
	if err := w.Fill(3); !errors.Is(err, boom) {
		t.Fatalf("Fill past failure: %v", err)
	}
	if !w.EOF() || !errors.Is(w.Err(), boom) {
		t.Fatal("terminal state not recorded")
	}
	if _, err := w.ReadByte(); err != nil {
		t.Fatalf("buffered bytes must stay readable, got %v", err)
	}
}

type errReader struct{ err error }

func (e *errReader) Read([]byte) (int, error) { return 0, e.err }

func TestCloseUnblocksFill(t *testing.T) {
	pr, pw := io.Pipe()
	defer pw.Close()
	w := New(pr, 8, 1)
	done := make(chan error, 1)
	go func() { done <- w.Fill(10) }()
	w.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("Fill after Close: %v", err)
	}
	w.Close() // idempotent
}

func TestMaxBufferedHighWater(t *testing.T) {
	data := make([]byte, 1<<20)
	w := New(bytes.NewReader(data), 64<<10, 2)
	defer w.Close()
	for {
		if err := w.Fill(128 << 10); err != nil {
			t.Fatal(err)
		}
		if w.Len() == 0 {
			break
		}
		w.Discard(w.Len())
		if w.EOF() && w.Len() == 0 {
			break
		}
	}
	if max := w.MaxBuffered(); max > 256<<10 {
		t.Fatalf("high-water %d for a bounded consumer", max)
	}
	if w.MaxBuffered() == 0 {
		t.Fatal("high-water never recorded")
	}
}

func TestCompaction(t *testing.T) {
	// Discarding far more than compactThreshold must not grow the
	// retained buffer: after compaction the live window starts at the
	// front again.
	data := make([]byte, 4*compactThreshold)
	w := New(bytes.NewReader(data), 32<<10, 2)
	defer w.Close()
	for i := 0; i < 4; i++ {
		if err := w.Fill(compactThreshold); err != nil {
			t.Fatal(err)
		}
		w.Discard(compactThreshold)
	}
	if w.off >= compactThreshold {
		t.Fatalf("dead prefix %d never compacted", w.off)
	}
	if w.Base() != int64(len(data)) {
		t.Fatalf("Base = %d, want %d", w.Base(), len(data))
	}
}

// TestPinnedSnapshotSurvivesSliding: while a snapshot is pinned, the
// window may slide, relocate and grow past it, but never writes to the
// bytes the snapshot covers; once unpinned, compaction resumes in place.
func TestPinnedSnapshotSurvivesSliding(t *testing.T) {
	data := make([]byte, 16*compactThreshold)
	for i := range data {
		data[i] = byte(i * 7)
	}
	w := New(bytes.NewReader(data), 8<<10, 2)
	defer w.Close()
	if err := w.Fill(2 * compactThreshold); err != nil {
		t.Fatal(err)
	}
	w.Discard(100)
	snap, base, unpin := w.Pin()
	want := bytes.Clone(snap)
	for i := 0; i < 12; i++ {
		w.Discard(compactThreshold)
		if err := w.Fill(2 * compactThreshold); err != nil {
			t.Fatal(err)
		}
	}
	if base != 100 || !bytes.Equal(snap, want) || !bytes.Equal(snap, data[100:100+len(snap)]) {
		t.Fatal("pinned snapshot changed while the window slid")
	}
	if !bytes.Equal(w.Bytes(), data[w.Base():w.Base()+int64(w.Len())]) {
		t.Fatal("window content wrong after relocating around a pin")
	}
	unpin()
	w.Discard(compactThreshold)
	if w.off != 0 {
		t.Fatalf("dead prefix %d not compacted once unpinned", w.off)
	}
}

// TestResidentWindow: a resident window serves the caller's slice
// itself. Discarding moves the head only: no byte of the slice is moved
// or written, even past the compaction threshold and after Recycle, and
// Fill never asks for more than the slice holds.
func TestResidentWindow(t *testing.T) {
	data := make([]byte, 3*compactThreshold)
	for i := range data {
		data[i] = byte(i * 7)
	}
	want := bytes.Clone(data)
	w := NewResident(data)
	if err := w.Fill(len(data) + 1); err != nil || w.Len() != len(data) || !w.EOF() {
		t.Fatalf("Fill past the end: err=%v Len=%d EOF=%v", err, w.Len(), w.EOF())
	}
	if w.MaxBuffered() != int64(len(data)) {
		t.Fatalf("MaxBuffered %d, want %d", w.MaxBuffered(), len(data))
	}
	w.DiscardTo(2 * compactThreshold)
	if w.Base() != 2*compactThreshold || &w.Bytes()[0] != &data[2*compactThreshold] {
		t.Fatal("Discard moved the window off the caller's slice")
	}
	pin, base, unpin := w.Pin()
	if base != w.Base() || &pin[0] != &data[base] {
		t.Fatal("Pin is not the caller's slice")
	}
	unpin()
	w.Discard(len(data))
	if b, err := w.ReadByte(); err != io.EOF {
		t.Fatalf("ReadByte at the end: %d, %v", b, err)
	}
	w.Recycle()
	w.Close()
	if !bytes.Equal(data, want) {
		t.Fatal("the caller's bytes changed")
	}
}
