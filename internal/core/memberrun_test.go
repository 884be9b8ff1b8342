package core

import (
	"bytes"
	"compress/flate"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/tracked"
)

// TestRunMemberSkipTo: the translation-free skip must deliver exactly
// the bytes from SkipTo onward, while the decode still accounts for the
// full member (MemberResult.Out is the total size).
func TestRunMemberSkipTo(t *testing.T) {
	data := corpusFastq(12000, 41)
	payload := corpusPayload(t, 12000, 41, 6)
	for _, skip := range []int64{0, 1, 100_000, int64(len(data)) - 777, int64(len(data)), int64(len(data)) + 5000} {
		p := NewPipeline(bytes.NewReader(payload), PipelineOptions{
			Threads:              3,
			BatchCompressedBytes: 128 << 10,
			MinChunk:             8 << 10,
		})
		var out []byte
		res, err := p.RunMemberOpts(MemberRun{
			Emit:   func(b []byte) error { out = append(out, b...); return nil },
			SkipTo: skip,
		})
		p.Close()
		if err != nil {
			t.Fatalf("skip %d: %v", skip, err)
		}
		if res.Out != int64(len(data)) {
			t.Fatalf("skip %d: member out %d, want %d", skip, res.Out, len(data))
		}
		want := []byte{}
		if skip < int64(len(data)) {
			want = data[skip:]
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("skip %d: emitted %d bytes, want %d (mismatch)", skip, len(out), len(want))
		}
		if p.OutBytes() != int64(len(data)) {
			t.Fatalf("skip %d: OutBytes %d, want %d", skip, p.OutBytes(), len(data))
		}
	}
}

// TestRunMemberCheckpoints: checkpoints emitted as a side-channel of a
// translated run must carry the true output window at their offset and
// respect the requested spacing.
func TestRunMemberCheckpoints(t *testing.T) {
	data := corpusFastq(12000, 41)
	payload := corpusPayload(t, 12000, 41, 6)
	const spacing = 200 << 10
	p := NewPipeline(bytes.NewReader(payload), PipelineOptions{
		Threads:              3,
		BatchCompressedBytes: 256 << 10,
		MinChunk:             8 << 10,
	})
	defer p.Close()
	var cps []Checkpoint
	res, err := p.RunMemberOpts(MemberRun{
		Emit:              func([]byte) error { return nil },
		CheckpointSpacing: spacing,
		OnCheckpoint:      func(cp Checkpoint) error { cps = append(cps, cp); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Out != int64(len(data)) {
		t.Fatalf("member out %d, want %d", res.Out, len(data))
	}
	if len(cps) < 3 {
		t.Fatalf("only %d checkpoints over %d output bytes at spacing %d", len(cps), len(data), spacing)
	}
	if cps[0].Out != 0 {
		t.Fatalf("first checkpoint at out %d, want 0", cps[0].Out)
	}
	for i, cp := range cps {
		if i > 0 && cp.Out-cps[i-1].Out < spacing {
			t.Fatalf("checkpoints %d and %d only %d bytes apart", i-1, i, cp.Out-cps[i-1].Out)
		}
		want := make([]byte, tracked.WindowSize)
		if cp.Out >= tracked.WindowSize {
			copy(want, data[cp.Out-tracked.WindowSize:cp.Out])
		} else {
			copy(want[tracked.WindowSize-cp.Out:], data[:cp.Out])
		}
		if !bytes.Equal(cp.Window, want) {
			t.Fatalf("checkpoint %d (out %d): window mismatch", i, cp.Out)
		}
	}
}

// TestRunMemberExactCheckpointsSkipped: with ExactCheckpoints, a fully
// skipped (tail-only) run must emit exactly the checkpoints a
// translated run emits — same boundaries, same bits, same windows —
// the property that lets index builds go translation-free without
// changing a single marshalled byte. Stored-block-heavy input (level
// 0) exercises the ambiguous-start-bit normalization.
func TestRunMemberExactCheckpointsSkipped(t *testing.T) {
	for _, level := range []int{0, 6} {
		payload := corpusPayload(t, 5000, 41, level)
		collect := func(skipTo int64, exact bool) []Checkpoint {
			p := NewPipeline(bytes.NewReader(payload), PipelineOptions{
				Threads:              3,
				BatchCompressedBytes: 128 << 10,
				MinChunk:             8 << 10,
			})
			defer p.Close()
			var cps []Checkpoint
			_, err := p.RunMemberOpts(MemberRun{
				Emit:              func([]byte) error { return nil },
				SkipTo:            skipTo,
				ExactCheckpoints:  exact,
				CheckpointSpacing: 96 << 10,
				OnCheckpoint:      func(cp Checkpoint) error { cps = append(cps, cp); return nil },
			})
			if err != nil {
				t.Fatalf("level %d skip %d: %v", level, skipTo, err)
			}
			return cps
		}
		want := collect(0, true)
		got := collect(1<<60, true) // everything skipped, tail-only pass 1
		if len(got) != len(want) {
			t.Fatalf("level %d: %d skipped checkpoints, want %d", level, len(got), len(want))
		}
		for i := range want {
			if got[i].Bit != want[i].Bit || got[i].Out != want[i].Out {
				t.Fatalf("level %d checkpoint %d: (bit %d, out %d) vs (bit %d, out %d)",
					level, i, got[i].Bit, got[i].Out, want[i].Bit, want[i].Out)
			}
			if !bytes.Equal(got[i].Window, want[i].Window) {
				t.Fatalf("level %d checkpoint %d (out %d): window mismatch", level, i, got[i].Out)
			}
		}
	}
}

// TestRunMemberResumeFromCheckpoint: a fresh pipeline positioned at a
// checkpoint's byte, seeded with its window, must reproduce the member
// tail exactly — the property the File cursor's auto-indexing relies
// on. The same applies to chunk-start checkpoints harvested during a
// skipped (translation-free) run.
func TestRunMemberResumeFromCheckpoint(t *testing.T) {
	data := corpusFastq(12000, 41)
	payload := corpusPayload(t, 12000, 41, 6)

	collect := func(skipTo int64) []Checkpoint {
		p := NewPipeline(bytes.NewReader(payload), PipelineOptions{
			Threads:              3,
			BatchCompressedBytes: 128 << 10,
			MinChunk:             8 << 10,
		})
		defer p.Close()
		var cps []Checkpoint
		_, err := p.RunMemberOpts(MemberRun{
			Emit:              func([]byte) error { return nil },
			SkipTo:            skipTo,
			CheckpointSpacing: 64 << 10,
			OnCheckpoint:      func(cp Checkpoint) error { cps = append(cps, cp); return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		return cps
	}

	for name, cps := range map[string][]Checkpoint{
		"translated": collect(0),
		// Whole member in skip mode (the huge target also engages the
		// tail-only sinks): chunk-start checkpoints.
		"skipped": collect(1 << 60),
	} {
		if len(cps) < 2 {
			t.Fatalf("%s: only %d checkpoints", name, len(cps))
		}
		cp := cps[len(cps)/2]
		p := NewPipeline(bytes.NewReader(payload[cp.Bit/8:]), PipelineOptions{
			Threads:              2,
			BatchCompressedBytes: 128 << 10,
			MinChunk:             8 << 10,
		})
		var out []byte
		res, err := p.RunMemberOpts(MemberRun{
			Emit:     func(b []byte) error { out = append(out, b...); return nil },
			StartBit: cp.Bit % 8,
			Context:  cp.Window,
			OutBase:  cp.Out,
		})
		p.Close()
		if err != nil {
			t.Fatalf("%s: resume at bit %d: %v", name, cp.Bit, err)
		}
		if res.Out != int64(len(data)) {
			t.Fatalf("%s: resumed member out %d, want %d", name, res.Out, len(data))
		}
		if !bytes.Equal(out, data[cp.Out:]) {
			t.Fatalf("%s: resumed tail mismatch from out %d", name, cp.Out)
		}
	}
}

// TestRunMemberSkipOvershoot: a batch the expansion estimate judges
// clearly below the skip target is measured through the tail sinks,
// which keep too little to translate. When the data turns far more
// compressible than the member so far (~2 MiB of FASTQ, then 4 MiB of
// one byte that deflates ~1000x), one 64 KiB batch jumps past the
// target; it must be decoded again in full and translated, so the bytes
// from SkipTo on, the member size and the checkpoint windows stay
// exact. Exact runs measure every skipped batch and take the same path.
func TestRunMemberSkipOvershoot(t *testing.T) {
	text := corpusFastq(8000, 47)
	data := append(bytes.Clone(text), bytes.Repeat([]byte{'A'}, 4<<20)...)
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()
	const spacing = 256 << 10
	for _, threads := range []int{1, 2} {
		for _, skip := range []int64{int64(len(text)) + 2<<20, int64(len(data)) - 1000} {
			for _, exact := range []bool{false, true} {
				name := fmt.Sprintf("threads %d skip %d exact %v", threads, skip, exact)
				p := NewPipeline(bytes.NewReader(payload), PipelineOptions{
					Threads:              threads,
					BatchCompressedBytes: 64 << 10,
					MinChunk:             8 << 10,
				})
				var out []byte
				var cps []Checkpoint
				res, err := p.RunMemberOpts(MemberRun{
					Emit:              func(b []byte) error { out = append(out, b...); return nil },
					SkipTo:            skip,
					CheckpointSpacing: spacing,
					ExactCheckpoints:  exact,
					OnCheckpoint:      func(cp Checkpoint) error { cps = append(cps, cp); return nil },
				})
				p.Close()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Out != int64(len(data)) {
					t.Fatalf("%s: member out %d, want %d", name, res.Out, len(data))
				}
				if !bytes.Equal(out, data[skip:]) {
					t.Fatalf("%s: emitted %d bytes, want %d (mismatch)", name, len(out), len(data)-int(skip))
				}
				if len(cps) < 4 {
					t.Fatalf("%s: only %d checkpoints", name, len(cps))
				}
				for i, cp := range cps {
					if i > 0 && cp.Out-cps[i-1].Out < spacing {
						t.Fatalf("%s: checkpoints %d and %d only %d bytes apart", name, i-1, i, cp.Out-cps[i-1].Out)
					}
					want := make([]byte, tracked.WindowSize)
					if cp.Out >= tracked.WindowSize {
						copy(want, data[cp.Out-tracked.WindowSize:cp.Out])
					} else {
						copy(want[tracked.WindowSize-cp.Out:], data[:cp.Out])
					}
					if !bytes.Equal(cp.Window, want) {
						t.Fatalf("%s: checkpoint %d (out %d): window mismatch", name, i, cp.Out)
					}
				}
			}
		}
	}
}

// TestExactRunExpansionBound: an index build's memory must not grow
// with the stream's expansion. A repeated 16 KiB FASTQ slice expands
// ~130x, so a span's full symbolic decode would hold ~130 x 2 bytes per
// compressed byte; flushes every 256 KiB of text give block sync
// byte-aligned starts to confirm inside each span. Sequential mode runs
// every span's sync and pass 1, deterministically, so each span reaches
// the expansion cap, fails, and is measured by the resolver's tail-only
// walk instead — and every checkpoint window is still the plaintext's.
func TestExactRunExpansionBound(t *testing.T) {
	if testing.Short() {
		t.Skip("64 MiB stream")
	}
	slice := corpusFastq(200, 47)[:16<<10]
	const total = 64 << 20
	var buf bytes.Buffer
	zw, _ := flate.NewWriter(&buf, 6)
	for n := 0; n < total; n += len(slice) {
		zw.Write(slice)
		if (n+len(slice))%(256<<10) == 0 {
			zw.Flush()
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()

	const spacing = 1 << 20
	p := NewPipeline(bytes.NewReader(payload), PipelineOptions{
		Threads:              2,
		BatchCompressedBytes: 256 << 10,
		MinChunk:             8 << 10,
		Sequential:           true,
	})
	defer p.Close()
	var cps []Checkpoint
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := p.RunMemberOpts(MemberRun{
		Emit:              func([]byte) error { return nil },
		SkipTo:            math.MaxInt64,
		ExactCheckpoints:  true,
		CheckpointSpacing: spacing,
		OnCheckpoint:      func(cp Checkpoint) error { cps = append(cps, cp); return nil },
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Out != total {
		t.Fatalf("member out %d, want %d", res.Out, total)
	}
	if len(cps) < total/spacing {
		t.Fatalf("%d checkpoints, want at least %d", len(cps), total/spacing)
	}
	want := make([]byte, tracked.WindowSize)
	for i, cp := range cps {
		for j := range want {
			want[j] = 0
			if at := cp.Out - tracked.WindowSize + int64(j); at >= 0 {
				want[j] = slice[at%int64(len(slice))]
			}
		}
		if !bytes.Equal(cp.Window, want) {
			t.Fatalf("checkpoint %d (out %d): window mismatch", i, cp.Out)
		}
	}
	w := p.Work()
	if w.BitsTried == 0 {
		t.Fatal("no span was synced: the run never reached symbolic pass 1")
	}
	// The checkpoints' windows are 2 MiB; a span decoded in full would
	// allocate 128 KiB x 130 x 2 bytes of symbols, 32 MiB.
	alloc := after.TotalAlloc - before.TotalAlloc
	const bound = 24 << 20
	if alloc > bound {
		t.Fatalf("run allocated %d bytes, bound %d (work %+v)", alloc, bound, w)
	}
	t.Logf("%d compressed bytes, %d checkpoints, %d bytes allocated, work %+v", len(payload), len(cps), alloc, w)
}
