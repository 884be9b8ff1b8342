package tracked

import (
	"slices"
	"testing"

	"repro/internal/bitio"
	"repro/internal/dna"
	"repro/internal/flate"
)

// These tests pin the fast loop to the scalar one through this
// package's own sinks — the pooled buffers, the U_j seeding of NewSink
// and NewTailSink, and Tail() — on top of the generic parity harness in
// internal/flate.

// decodeWith drives v through a decoder from startBit with the fast
// loop toggled, until the final block or a Stop (which DecodeBlocks
// reports as a nil error).
func decodeWith(t *testing.T, payload []byte, startBit int64, v flate.Visitor, noFast bool) {
	t.Helper()
	r, err := bitio.NewReaderAt(payload, startBit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flate.NewDecoder(flate.Options{NoFast: noFast}).DecodeBlocks(r, v); err != nil {
		t.Fatalf("noFast=%v: %v", noFast, err)
	}
}

// decodeSinkWith decodes into a fresh Sink, mirroring DecodeFrom but
// exposing NoFast. The caller releases the sink.
func decodeSinkWith(t *testing.T, payload []byte, startBit, limit int64, noFast bool) *Sink {
	t.Helper()
	sink := NewSink(0)
	sink.Limit = limit
	sink.RecordBlocks()
	decodeWith(t, payload, startBit, sink, noFast)
	return sink
}

// TestFastSymbolicParity pins the fast symbolic loop to the scalar
// one: mid-stream decodes with an undetermined context must produce
// identical symbol sequences (including U_j placement) and spans.
func TestFastSymbolicParity(t *testing.T) {
	data := dna.Random(400_000, 31)
	for _, level := range []int{1, 6, 9} {
		payload, spans := fixture(t, data, level)
		for _, k := range []int{0, 1, len(spans) / 2} {
			startBit := spans[k].Event.StartBit
			fast := decodeSinkWith(t, payload, startBit, 0, false)
			scalar := decodeSinkWith(t, payload, startBit, 0, true)
			fo, so := fast.Output(), scalar.Output()
			if len(fo) != len(so) {
				t.Fatalf("level %d block %d: length %d vs %d", level, k, len(fo), len(so))
			}
			for i := range fo {
				if fo[i] != so[i] {
					t.Fatalf("level %d block %d: symbol %d: %d vs %d", level, k, i, fo[i], so[i])
				}
			}
			if len(fast.Blocks) != len(scalar.Blocks) {
				t.Fatalf("level %d block %d: span count %d vs %d", level, k, len(fast.Blocks), len(scalar.Blocks))
			}
			for i := range fast.Blocks {
				if fast.Blocks[i] != scalar.Blocks[i] {
					t.Fatalf("level %d block %d: span %d mismatch", level, k, i)
				}
			}
			fast.Release()
			scalar.Release()
		}
	}
}

// TestFastSymbolicLimitParity checks Limit stops land on the same
// entry count on both paths, including limits inside packed pairs and
// matches.
func TestFastSymbolicLimitParity(t *testing.T) {
	data := dna.Random(200_000, 32)
	payload, spans := fixture(t, data, 6)
	startBit := spans[1].Event.StartBit
	for _, limit := range []int64{1, 2, 3, 100, WindowSize, 150_000} {
		fast := decodeSinkWith(t, payload, startBit, limit, false)
		scalar := decodeSinkWith(t, payload, startBit, limit, true)
		if fast.Len() != scalar.Len() {
			t.Fatalf("limit %d: %d vs %d entries", limit, fast.Len(), scalar.Len())
		}
		if !slices.Equal(fast.Output(), scalar.Output()) {
			t.Fatalf("limit %d: symbols differ", limit)
		}
		fast.Release()
		scalar.Release()
	}
}

// TestFastTailSymbolicParity pins the tail-only fast loop to scalar:
// same totals, same trailing window, through multiple slides.
func TestFastTailSymbolicParity(t *testing.T) {
	data := dna.Random(500_000, 33) // many windows of output
	payload, spans := fixture(t, data, 6)

	run := func(noFast bool, startBit, limit int64) (int64, []uint16) {
		sink := NewTailSink()
		defer sink.Release()
		sink.Limit = limit
		decodeWith(t, payload, startBit, sink, noFast)
		return sink.Len(), slices.Clone(sink.Tail())
	}

	for _, k := range []int{0, 1} {
		startBit := spans[k].Event.StartBit
		for _, limit := range []int64{0, 7, WindowSize + 3, 400_000} {
			fn, ft := run(false, startBit, limit)
			sn, st := run(true, startBit, limit)
			if fn != sn {
				t.Fatalf("block %d limit %d: total %d vs %d", k, limit, fn, sn)
			}
			if len(ft) != len(st) {
				t.Fatalf("block %d limit %d: tail length %d vs %d", k, limit, len(ft), len(st))
			}
			for i := range ft {
				if ft[i] != st[i] {
					t.Fatalf("block %d limit %d: tail entry %d: %d vs %d", k, limit, i, ft[i], st[i])
				}
			}
		}
	}
}
