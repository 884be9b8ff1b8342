package flate

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/bitio"
)

// allocBytes returns the bytes f allocates in one call, measured after a
// warm-up call (pools, lazily built tables) and a collection.
func allocBytes(f func()) uint64 {
	f()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecompressAllAllocBudget: an unsized decode grows its window sink
// by doubling, so filling it from empty allocates under twice its final
// capacity instead of the ~5x that append's 1.25x steps cost. The final
// capacity is under twice the output, so the general bound is 4x, met
// just past a doubling step; this 4 MiB output sits near 2x.
func TestDecompressAllAllocBudget(t *testing.T) {
	data := textData(4<<20, 3)
	payload := stdCompress(t, data, 6)
	var got []byte
	var err error
	alloc := allocBytes(func() { got, err = DecompressAll(payload, 0) })
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("decode: err=%v, output equal=%v", err, bytes.Equal(got, data))
	}
	if ratio := float64(alloc) / float64(len(data)); ratio > 3 {
		t.Fatalf("DecompressAll allocated %.2f bytes per output byte, budget 3", ratio)
	}
}

// TestDecompressSizedHint: wrong hints change no byte and no end bit,
// and an exact one is the only allocation that scales with the output.
func TestDecompressSizedHint(t *testing.T) {
	data := textData(1<<20, 4)
	payload := stdCompress(t, data, 6)
	_, spans, err := DecompressRecorded(payload, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	wantEnd := spans[len(spans)-1].EndBit
	for _, hint := range []int{0, 1, len(data) - 1, len(data), len(data) + 1, 1 << 26} {
		got, endBit, err := DecompressSized(payload, hint)
		if err != nil || !bytes.Equal(got, data) || endBit != wantEnd {
			t.Fatalf("hint %d: err=%v, output equal=%v, end bit %d want %d",
				hint, err, bytes.Equal(got, data), endBit, wantEnd)
		}
	}
	var got []byte
	alloc := allocBytes(func() { got, _, err = DecompressSized(payload, len(data)) })
	if err != nil || cap(got) != len(data)+FastSlack {
		t.Fatalf("exact hint: err=%v, cap %d, want %d (no growth)", err, cap(got), len(data)+FastSlack)
	}
	// The rest is a decoder's tables (~57 KiB), rebuilt when a
	// collection has emptied the decoder pool.
	if ratio := float64(alloc) / float64(len(data)); ratio > 1.1 {
		t.Fatalf("exact hint allocated %.3f bytes per output byte", ratio)
	}
}

// TestGrowStopsAtLimit: a limited sink grows no further than the room
// its limit can use.
func TestGrowStopsAtLimit(t *testing.T) {
	data := textData(1<<20, 5)
	payload := stdCompress(t, data, 6)
	const limit = 300_000
	r := bitio.NewReader(payload)
	sink := &ByteSink{}
	sink.Limit = limit
	dec := NewDecoder(Options{})
	dec.SetTrackStart(true)
	if err := dec.DecodeStream(r, sink); err != nil {
		t.Fatal(err)
	}
	if got := sink.Output(); !bytes.Equal(got, data[:len(got)]) || len(got) < limit {
		t.Fatalf("limited decode: %d bytes, prefix equal=%v", len(got), bytes.Equal(got, data[:len(got)]))
	}
	if c := cap(sink.Out); c > limit+FastSlack {
		t.Fatalf("cap %d past limit room %d", c, limit+FastSlack)
	}
}
