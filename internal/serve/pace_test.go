package serve

import (
	"bytes"
	"testing"
	"time"
)

// The bucket on a hand-driven clock: a full bucket's worth leaves at
// once, later reservations queue at the rate however many callers
// interleave them, and an idle bucket refills to its capacity, no more.
func TestPacerReserve(t *testing.T) {
	const perSec, burst = 1 << 20, 256 << 10
	p := newPacer(perSec, burst)
	t0 := time.Unix(1000, 0)
	if d := p.reserve(burst, t0); d > 0 {
		t.Fatalf("a full bucket made its first %d bytes wait %v", burst, d)
	}
	// Two callers alternate 128 KiB chunks at the same instant: the k-th
	// chunk is due k/8 s on, whoever asks.
	for k := 1; k <= 6; k++ {
		want := time.Duration(k) * time.Second / 8
		if d := p.reserve(128<<10, t0); d != want {
			t.Fatalf("chunk %d: wait %v, want %v", k, d, want)
		}
	}
	// A waiter that oversleeps loses nothing: its next chunk is due when
	// it would have been.
	if d := p.reserve(128<<10, t0.Add(800*time.Millisecond)); d != 75*time.Millisecond {
		t.Fatalf("after oversleeping: wait %v, want 75ms", d)
	}
	// An hour idle refills the bucket to burst, not to an hour's worth.
	t1 := t0.Add(time.Hour)
	if d := p.reserve(burst, t1); d > 0 {
		t.Fatalf("refilled bucket made %d bytes wait %v", burst, d)
	}
	if d := p.reserve(128<<10, t1); d != time.Second/8 {
		t.Fatalf("past the refilled burst: wait %v, want 125ms", d)
	}
}

// A body's first bulkAfterBytes never touch the bucket (nil here, so a
// touch would panic); the rest arrives intact and no sooner than the
// rate allows.
func TestBulkWriter(t *testing.T) {
	body := make([]byte, bulkAfterBytes+2*bulkChunkBytes+123)
	for i := range body {
		body[i] = byte(i * 7)
	}
	var out bytes.Buffer
	small := &bulkWriter{w: &out}
	for _, part := range [][]byte{body[:1], body[1:70000], body[70000:bulkAfterBytes]} {
		if n, err := small.Write(part); n != len(part) || err != nil {
			t.Fatalf("Write = %d, %v", n, err)
		}
	}
	if !bytes.Equal(out.Bytes(), body[:bulkAfterBytes]) {
		t.Fatal("unpaced part differs")
	}

	// 2 chunks + 123 bytes of bulk against an empty-on-arrival bucket of
	// 10 chunks/s: the last piece is due 200 ms after the first reserve.
	out.Reset()
	bucket := newPacer(10*bulkChunkBytes, 1)
	bw := &bulkWriter{w: &out, bucket: bucket}
	start := time.Now()
	if n, err := bw.Write(body); n != len(body) || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if took := time.Since(start); took < 200*time.Millisecond {
		t.Errorf("bulk part took %v, the rate allows no less than 200ms", took)
	}
	if !bytes.Equal(out.Bytes(), body) {
		t.Fatal("paced body differs")
	}
}
