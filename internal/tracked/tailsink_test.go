package tracked

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/dna"
	"repro/internal/flate"
)

// TestTailDecodeMatchesFullDecode: the tail-only decode must agree
// with the full symbolic decode on everything pass 2 consumes from a
// skipped chunk — output length, trailing window, block spans, end
// bit — across compression levels and start blocks.
func TestTailDecodeMatchesFullDecode(t *testing.T) {
	data := dna.Random(500_000, 31)
	for _, level := range []int{1, 6, 9} {
		payload, spans := fixture(t, data, level)
		if len(spans) < 4 {
			t.Fatalf("level %d: want >=4 blocks", level)
		}
		for _, k := range []int{0, 1, len(spans) / 2} {
			start := spans[k].Event.StartBit
			full, err := DecodeFrom(payload, start, DecodeOptions{RecordSpans: true})
			if err != nil {
				t.Fatalf("level %d block %d: full: %v", level, k, err)
			}
			tail, err := DecodeTailFrom(payload, start, DecodeOptions{RecordSpans: true})
			if err != nil {
				t.Fatalf("level %d block %d: tail: %v", level, k, err)
			}
			if tail.OutLen != full.OutLen || tail.OutLen != int64(len(full.Out)) {
				t.Fatalf("level %d block %d: OutLen %d vs %d", level, k, tail.OutLen, full.OutLen)
			}
			want := full.Out
			if len(want) > WindowSize {
				want = want[len(want)-WindowSize:]
			}
			if !equalU16(tail.Out, want) {
				t.Fatalf("level %d block %d: trailing window differs", level, k)
			}
			if tail.EndBit != full.EndBit || tail.Final != full.Final {
				t.Fatalf("level %d block %d: end %d/%v vs %d/%v",
					level, k, tail.EndBit, tail.Final, full.EndBit, full.Final)
			}
			if len(tail.Spans) != len(full.Spans) {
				t.Fatalf("level %d block %d: %d spans vs %d", level, k, len(tail.Spans), len(full.Spans))
			}
			for i := range tail.Spans {
				if tail.Spans[i] != full.Spans[i] {
					t.Fatalf("level %d block %d: span %d differs: %+v vs %+v",
						level, k, i, tail.Spans[i], full.Spans[i])
				}
			}
			// And the propagated window — the thing skip mode exists to
			// produce — must be bit-identical.
			ctx := make([]byte, WindowSize)
			for j := range ctx {
				ctx[j] = byte(j * 7)
			}
			wFull, wTail := make([]byte, WindowSize), make([]byte, WindowSize)
			if err := ResolveWindowInto(wFull, full.Out, ctx); err != nil {
				t.Fatal(err)
			}
			if err := ResolveWindowInto(wTail, tail.Out, ctx); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wFull, wTail) {
				t.Fatalf("level %d block %d: resolved windows differ", level, k)
			}
			tail.Release()
			full.Release()
		}
	}
}

func equalU16(a, b []uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTailDecodeStopBit: the StopBit halt must report the same
// boundary as the full sink's.
func TestTailDecodeStopBit(t *testing.T) {
	data := dna.Random(300_000, 32)
	payload, spans := fixture(t, data, 6)
	if len(spans) < 3 {
		t.Fatal("want >=3 blocks")
	}
	stop := spans[2].Event.StartBit
	full, err := DecodeFrom(payload, spans[1].Event.StartBit, DecodeOptions{StopBit: stop})
	if err != nil {
		t.Fatal(err)
	}
	tail, err := DecodeTailFrom(payload, spans[1].Event.StartBit, DecodeOptions{StopBit: stop})
	if err != nil {
		t.Fatal(err)
	}
	if tail.EndBit != full.EndBit || tail.OutLen != full.OutLen {
		t.Fatalf("stop: end %d len %d vs end %d len %d", tail.EndBit, tail.OutLen, full.EndBit, full.OutLen)
	}
	tail.Release()
	full.Release()
}

// TestResolveCorruptSymbol: a symbolic value >= SymBase+WindowSize
// (corrupt buffer, or one paired with the wrong alphabet) must surface
// as ErrSymbolRange from every translation entry point — it used to
// panic with an index-out-of-range. Regression for the PR-5 bugfix.
func TestResolveCorruptSymbol(t *testing.T) {
	ctx := make([]byte, WindowSize)
	// Sizes straddle the 8-wide fast path and (at 128K) the table path.
	for _, n := range []int{1, 7, 8, 9, 300, 128 << 10} {
		out := make([]uint16, n)
		for i := range out {
			out[i] = 'A'
		}
		out[n-1] = SymBase + WindowSize // one past the last valid symbol
		if _, err := Resolve(out, ctx, nil); !errors.Is(err, ErrSymbolRange) {
			t.Fatalf("n=%d: Resolve err = %v, want ErrSymbolRange", n, err)
		}
		w := make([]byte, WindowSize)
		if err := ResolveWindowInto(w, out, ctx); !errors.Is(err, ErrSymbolRange) {
			t.Fatalf("n=%d: ResolveWindowInto err = %v, want ErrSymbolRange", n, err)
		}
	}
	// Maximum representable value as well.
	out := []uint16{0xffff}
	if _, err := Resolve(out, ctx, nil); !errors.Is(err, ErrSymbolRange) {
		t.Fatalf("max value: err = %v, want ErrSymbolRange", err)
	}
}

// TestResolveBatchedMatchesScalar: the 8-wide batched translation must
// agree with a straightforward per-entry loop at every alignment and
// symbol density.
func TestResolveBatchedMatchesScalar(t *testing.T) {
	ctx := make([]byte, WindowSize)
	for i := range ctx {
		ctx[i] = byte(255 - i%251)
	}
	scalar := func(out []uint16) []byte {
		dst := make([]byte, len(out))
		for i, v := range out {
			if v < SymBase {
				dst[i] = byte(v)
			} else {
				dst[i] = ctx[v-SymBase]
			}
		}
		return dst
	}
	// 1000 exercises the scalar region path, 200_000 the table path
	// (len >= resolveTabMin).
	for _, n := range []int{0, 1, 5, 8, 9, 16, 17, 1000, 200_000} {
		for _, density := range []int{0, 1, 3, 100} {
			out := make([]uint16, n)
			for i := range out {
				if density > 0 && i%100 < density {
					out[i] = uint16(SymBase + (i*31)%WindowSize)
				} else {
					out[i] = uint16('a' + i%26)
				}
			}
			got, err := Resolve(out, ctx, nil)
			if err != nil {
				t.Fatalf("n=%d density=%d: %v", n, density, err)
			}
			if !bytes.Equal(got, scalar(out)) {
				t.Fatalf("n=%d density=%d: batched translation differs", n, density)
			}
		}
	}
}

// TestSinkBlockEndWithoutStart: both symbolic sinks must treat a
// BlockEnd with no recorded span as a no-op (visitor misuse must not
// panic).
func TestSinkBlockEndWithoutStart(t *testing.T) {
	s := NewSink(0)
	defer s.Release()
	s.RecordBlocks()
	if err := s.BlockEnd(99); err != nil {
		t.Fatalf("Sink.BlockEnd: %v", err)
	}
	if len(s.Blocks) != 0 {
		t.Fatalf("Sink recorded %d spans", len(s.Blocks))
	}
	ts := NewTailSink()
	defer ts.Release()
	ts.RecordBlocks()
	if err := ts.BlockEnd(99); err != nil {
		t.Fatalf("TailSink.BlockEnd: %v", err)
	}
	if len(ts.Blocks) != 0 {
		t.Fatalf("TailSink recorded %d spans", len(ts.Blocks))
	}
}

// TestTailSinkSlide: outputs far larger than the slide threshold keep
// the buffer bounded while the tail stays correct.
func TestTailSinkSlide(t *testing.T) {
	s := NewTailSink()
	defer s.Release()
	var want []uint16
	push := func(v uint16) {
		want = append(want, v)
	}
	// A long literal run, then overlapping matches (RLE), then a
	// max-distance match — together they cross several slides.
	for i := 0; i < 3*WindowSize; i++ {
		b := byte(i % 251)
		if err := s.Literal(b); err != nil {
			t.Fatal(err)
		}
		push(uint16(b))
	}
	if err := s.Match(flate.MaxMatch, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < flate.MaxMatch; i++ {
		push(want[len(want)-1])
	}
	if err := s.Match(100, WindowSize); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		push(want[len(want)-WindowSize])
	}
	if got, total := s.Tail(), s.Len(); total != int64(len(want)) {
		t.Fatalf("total %d, want %d", total, len(want))
	} else if !equalU16(got, want[len(want)-WindowSize:]) {
		t.Fatal("tail mismatch after slides")
	}
	if len(s.Buf) > flate.SlidingCap {
		t.Fatalf("buffer grew to %d entries", len(s.Buf))
	}
}
