package flate

import (
	"bytes"
	"compress/flate"
	"testing"

	"repro/internal/bitio"
)

// deflateStd compresses data with the stdlib so the decoder under test
// sees independently produced streams.
func deflateStd(t *testing.T, data []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, level)
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

func genText(n int, seed byte) []byte {
	out := make([]byte, n)
	x := uint32(seed) + 1
	for i := range out {
		x = x*1664525 + 1013904223
		out[i] = "ACGTacgtNn\n"[x%11]
	}
	return out
}

// TestTailSinkMatchesByteSink: count, spans, and the trailing window
// must agree with a full ByteSink decode, with and without a seeded
// context.
func TestTailSinkMatchesByteSink(t *testing.T) {
	data := genText(300_000, 5)
	payload := deflateStd(t, data, 6)

	full, spans, err := DecompressRecorded(payload, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, data) {
		t.Fatal("reference decode mismatch")
	}

	r, err := bitio.NewReaderAt(payload, 0)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewTailSink(nil)
	defer sink.Release()
	sink.RecordBlocks()
	dec := NewDecoder(Options{})
	dec.SetTrackStart(true)
	if err := dec.DecodeStream(r, sink); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != int64(len(data)) {
		t.Fatalf("Len = %d, want %d", sink.Len(), len(data))
	}
	if len(sink.Blocks) != len(spans) {
		t.Fatalf("%d spans, want %d", len(sink.Blocks), len(spans))
	}
	for i := range spans {
		if sink.Blocks[i] != spans[i] {
			t.Fatalf("span %d: %+v vs %+v", i, sink.Blocks[i], spans[i])
		}
	}
	w := make([]byte, WindowSize)
	sink.WindowInto(w)
	if !bytes.Equal(w, data[len(data)-WindowSize:]) {
		t.Fatal("trailing window mismatch")
	}
}

// TestFastTailSinkParity pins TailSink — Sliding[byte] behind its own
// BlockStart — to the scalar loop: same total, same trailing window and
// same error at every Limit, including limits around one window, around
// the compaction point and at the stream's end.
func TestFastTailSinkParity(t *testing.T) {
	data := textData(300_000, 73) // > 4 windows: exercises slide()
	payload := stdCompress(t, data, 6)

	run := func(noFast bool, limit int64) (int64, []byte, error) {
		r, err := bitio.NewReaderAt(payload, 0)
		if err != nil {
			t.Fatal(err)
		}
		sink := NewTailSink(nil)
		defer sink.Release()
		sink.Limit = limit
		dec := NewDecoder(Options{NoFast: noFast})
		dec.SetTrackStart(true)
		err = dec.DecodeStream(r, sink)
		w := make([]byte, WindowSize)
		sink.WindowInto(w)
		return sink.Len(), w, err
	}

	limits := []int64{0, 1, 2, 3, 100, WindowSize - 1, WindowSize, WindowSize + 1,
		slideAt, slideAt + 7, 299_999, 300_000}
	for _, limit := range limits {
		fn, fw, ferr := run(false, limit)
		sn, sw, serr := run(true, limit)
		if fn != sn {
			t.Fatalf("limit %d: total mismatch fast=%d scalar=%d", limit, fn, sn)
		}
		if !bytes.Equal(fw, sw) {
			t.Fatalf("limit %d: window mismatch", limit)
		}
		if (ferr == nil) != (serr == nil) || (ferr != nil && ferr.Error() != serr.Error()) {
			t.Fatalf("limit %d: error mismatch fast=%v scalar=%v", limit, ferr, serr)
		}
	}
}

// TestTailSinkStopsBeforeCapture: a TailSink halted by StopBit must
// take no window, walk mark or block span for the block it halts at,
// even when that block is exactly the next capture target — the block
// belongs to the next segment, whose own decode captures it.
func TestTailSinkStopsBeforeCapture(t *testing.T) {
	payload := deflateStd(t, genText(400_000, 21), 6)
	_, spans, err := DecompressRecorded(payload, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) < 3 {
		t.Fatal("want >=3 blocks")
	}
	first, stop := spans[1], spans[2]
	r, err := bitio.NewReaderAt(payload, 0)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewTailSink(nil)
	defer sink.Release()
	sink.StopBit = stop.Event.StartBit
	sink.RecordBlocks()
	sink.CaptureEvery(first.OutStart, stop.OutStart-first.OutStart)
	dec := NewDecoder(Options{})
	dec.SetTrackStart(true)
	final, err := dec.DecodeBlocks(r, sink)
	outs, bits := sink.WalkMarks()
	switch {
	case err != nil || final:
		t.Fatalf("final=%v err=%v, want a clean StopBit halt", final, err)
	case sink.StoppedAt != stop.Event.StartBit:
		t.Fatalf("StoppedAt %d, want %d", sink.StoppedAt, stop.Event.StartBit)
	case sink.Len() != stop.OutStart:
		t.Fatalf("decoded %d bytes, want %d", sink.Len(), stop.OutStart)
	case len(sink.Captured()) != 1:
		t.Fatalf("%d windows captured, want 1 (the stop block's is the next segment's)", len(sink.Captured()))
	case len(sink.Blocks) != 2:
		t.Fatalf("%d block spans, want 2", len(sink.Blocks))
	case len(outs) != 1 || outs[0] != first.OutStart || bits[0] != first.Event.StartBit:
		t.Fatalf("walk marks %v/%v, want one at (%d, %d)", outs, bits, first.OutStart, first.Event.StartBit)
	}
	full, _, _ := DecompressRecorded(payload, 0, false)
	want := make([]byte, WindowSize) // zero-padded before the stream start
	off := int(first.OutStart)
	copy(want[max(WindowSize-off, 0):], full[max(off-WindowSize, 0):off])
	if !bytes.Equal(sink.Captured()[0], want) {
		t.Fatal("captured window differs from the decoded history")
	}
}

// TestByteSinkBlockEndWithoutStart: a BlockEnd with no prior
// BlockStart must be a no-op on a recording ByteSink — it used to
// index Blocks[-1] and panic. Regression for the PR-5 bugfix; the
// TailSink is covered by the same contract.
func TestByteSinkBlockEndWithoutStart(t *testing.T) {
	s := &ByteSink{}
	s.RecordBlocks()
	if err := s.BlockEnd(42); err != nil {
		t.Fatalf("ByteSink.BlockEnd: %v", err)
	}
	if len(s.Blocks) != 0 {
		t.Fatalf("ByteSink recorded %d spans", len(s.Blocks))
	}
	// Non-recording sinks were already safe; keep them that way.
	if err := (&ByteSink{}).BlockEnd(42); err != nil {
		t.Fatal(err)
	}

	ts := NewTailSink(nil)
	defer ts.Release()
	ts.RecordBlocks()
	if err := ts.BlockEnd(42); err != nil {
		t.Fatalf("TailSink.BlockEnd: %v", err)
	}
	if len(ts.Blocks) != 0 {
		t.Fatalf("TailSink recorded %d spans", len(ts.Blocks))
	}

	// And a normal recorded decode still annotates its spans.
	payload := deflateStd(t, genText(4096, 3), 6)
	out, spans, err := DecompressRecorded(payload, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 || spans[len(spans)-1].OutEnd != int64(len(out)) {
		t.Fatalf("span recording broken: %+v", spans)
	}
}
