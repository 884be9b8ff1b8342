package gzindex

import (
	"bytes"
	stdflate "compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/deflate"
	"repro/internal/fastq"
)

// edited returns a copy of ix with edit applied, leaving ix (and its
// checkpoint slice) alone.
func edited(ix *Index, edit func(*Index)) *Index {
	c := &Index{OutSize: ix.OutSize, EndBit: ix.EndBit}
	c.Checkpoints = append(c.Checkpoints, ix.Checkpoints...)
	edit(c)
	return c
}

// storedHeavy is a stream a level sweep of one compressor never makes:
// incompressible runs (stdlib stores them), text, and a sync flush —
// an empty stored block — after every piece, so block boundaries repeat
// at one output offset and checkpoints land next to empty blocks.
func storedHeavy(t testing.TB) (payload, data []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	text := fastq.Generate(fastq.GenOptions{Reads: 6000, Seed: 78})
	var buf bytes.Buffer
	w, err := stdflate.NewWriter(&buf, 6)
	if err != nil {
		t.Fatal(err)
	}
	for len(text) > 0 {
		n := min(len(text), 20000+rng.Intn(90000))
		piece := text[:n]
		text = text[n:]
		if rng.Intn(2) == 0 {
			piece = make([]byte, 5000+rng.Intn(70000))
			rng.Read(piece)
		}
		data = append(data, piece...)
		if _, err := w.Write(piece); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), data
}

// TestReadAtFastSinkParity: over levels 0/1/6/9 and the stored-heavy
// stream, every (off, len) of a seeded sweep — inside one span, across
// several, on checkpoints, at the tail — reads the same bytes through
// the span primitive as through the scalar sink it replaced, and both
// equal the plaintext.
func TestReadAtFastSinkParity(t *testing.T) {
	type stream struct {
		name          string
		payload, data []byte
	}
	var streams []stream
	data := fastq.Generate(fastq.GenOptions{Reads: 9000, Seed: 51})
	for _, level := range []int{0, 1, 6, 9} {
		payload, err := deflate.Compress(data, level)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, stream{fmt.Sprintf("level%d", level), payload, data})
	}
	sp, sd := storedHeavy(t)
	streams = append(streams, stream{"stored-heavy", sp, sd})

	for _, s := range streams {
		t.Run(s.name, func(t *testing.T) {
			ix, err := Build(s.payload, 96<<10)
			if err != nil {
				t.Fatal(err)
			}
			if len(ix.Checkpoints) < 8 {
				t.Fatalf("only %d checkpoints", len(ix.Checkpoints))
			}
			size := int64(len(s.data))
			rng := rand.New(rand.NewSource(9))
			type read struct{ off, n int64 }
			var sweep []read
			for i := 0; i < 150; i++ {
				n := int64(1 + rng.Intn(1<<uint(1+rng.Intn(19)))) // 1 B .. 512 KiB
				sweep = append(sweep, read{rng.Int63n(size), n})
			}
			for _, cp := range ix.Checkpoints {
				sweep = append(sweep, read{cp.Out, 1}, read{cp.Out, 70000})
				if cp.Out > 0 {
					sweep = append(sweep, read{cp.Out - 1, 1}, read{cp.Out - 1, 2}, read{cp.Out - 100, 300})
				}
			}
			sweep = append(sweep, read{0, size}, read{size - 1, 1}, read{size - 10, 500})
			for _, q := range sweep {
				got, want := make([]byte, q.n), make([]byte, q.n)
				n, err := ix.ReadAt(s.payload, got, q.off)
				if err != nil {
					t.Fatalf("ReadAt(%d, %d): %v", q.off, q.n, err)
				}
				rn, err := refReadAt(ix, s.payload, want, q.off)
				if err != nil {
					t.Fatalf("reference ReadAt(%d, %d): %v", q.off, q.n, err)
				}
				if n != rn || n != int(min(q.n, size-q.off)) {
					t.Fatalf("ReadAt(%d, %d) = %d bytes, reference %d, stream has %d", q.off, q.n, n, rn, size-q.off)
				}
				if !bytes.Equal(got[:n], want[:n]) || !bytes.Equal(got[:n], s.data[q.off:q.off+int64(n)]) {
					t.Fatalf("ReadAt(%d, %d): bytes differ from the scalar reference or the plaintext", q.off, q.n)
				}
			}
		})
	}
}

// TestSpanGeometry: SpanAt tiles [0, OutSize) with the checkpoint
// spans, a whole-span read inflates exactly the span, and a read of
// several spans inflates exactly their sum.
func TestSpanGeometry(t *testing.T) {
	payload, data := fixture(t, 8000, 6)
	ix, err := Build(payload, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	src := func(lo, hi int64) ([]byte, error) { return payload[lo:hi], nil }
	var next int64
	for i, cp := range ix.Checkpoints {
		start, end, ok := ix.SpanAt(cp.Out)
		if !ok || start != cp.Out || start != next || end <= start {
			t.Fatalf("span %d: SpanAt(%d) = [%d, %d) ok=%v, want start %d", i, cp.Out, start, end, ok, next)
		}
		if s2, e2, _ := ix.SpanAt(end - 1); s2 != start || e2 != end {
			t.Fatalf("span %d: SpanAt(end-1) = [%d, %d), want [%d, %d)", i, s2, e2, start, end)
		}
		buf := make([]byte, end-start)
		n, inflated, err := ix.ReadAtSource(src, buf, start)
		if err != nil || n != len(buf) || inflated != end-start {
			t.Fatalf("span %d: n=%d inflated=%d err=%v, want %d bytes and no waste", i, n, inflated, err, len(buf))
		}
		if !bytes.Equal(buf, data[start:end]) {
			t.Fatalf("span %d: bytes differ", i)
		}
		next = end
	}
	if next != ix.OutSize {
		t.Fatalf("spans end at %d, stream at %d", next, ix.OutSize)
	}
	for _, off := range []int64{-1, ix.OutSize, ix.OutSize + 5} {
		if _, _, ok := ix.SpanAt(off); ok {
			t.Fatalf("SpanAt(%d) ok outside the stream", off)
		}
	}
	// Three whole spans in one read: nothing outside them is decoded.
	from, to := ix.Checkpoints[2].Out, ix.Checkpoints[5].Out
	buf := make([]byte, to-from)
	if n, inflated, err := ix.ReadAtSource(src, buf, from); err != nil || n != len(buf) || inflated != to-from {
		t.Fatalf("three spans: n=%d inflated=%d err=%v, want %d", n, inflated, err, to-from)
	}
}

// TestLyingIndexNeverServesWrongBytes: an index whose geometry was
// edited after the build either still reads gunzip's bytes or fails
// with ErrMismatch, for every whole-span read and the whole stream.
func TestLyingIndexNeverServesWrongBytes(t *testing.T) {
	payload, data := fixture(t, 8000, 6)
	honest, err := Build(payload, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	last := len(honest.Checkpoints) - 1
	lies := map[string]func(ix *Index){
		"bit moved to the next checkpoint": func(ix *Index) { ix.Checkpoints[3].Bit = ix.Checkpoints[4].Bit - 1 },
		"bit off by one":                   func(ix *Index) { ix.Checkpoints[3].Bit++ },
		"out shifted":                      func(ix *Index) { ix.Checkpoints[3].Out += 7 },
		"bits of two checkpoints swapped": func(ix *Index) {
			ix.Checkpoints[2].Bit, ix.Checkpoints[3].Bit = ix.Checkpoints[3].Bit, ix.Checkpoints[2].Bit
		},
		"stream longer than it is":          func(ix *Index) { ix.OutSize += 1000 },
		"stream shorter than it is":         func(ix *Index) { ix.OutSize -= 1000 },
		"end bit early":                     func(ix *Index) { ix.EndBit -= 64 },
		"end bit late":                      func(ix *Index) { ix.EndBit += 64 },
		"last checkpoint at a non-boundary": func(ix *Index) { ix.Checkpoints[last].Bit += 3 },
	}
	for name, lie := range lies {
		t.Run(name, func(t *testing.T) {
			ix := edited(honest, lie)
			mismatches := 0
			check := func(off, n int64) {
				buf := make([]byte, n)
				m, err := ix.ReadAt(payload, buf, off)
				switch {
				case errors.Is(err, ErrMismatch):
					mismatches++
				case err != nil:
					t.Fatalf("ReadAt(%d, %d): %v is not ErrMismatch", off, n, err)
				case int64(m) != n || !bytes.Equal(buf, data[off:off+n]):
					t.Fatalf("ReadAt(%d, %d) = %d bytes, no error, not gunzip's bytes", off, n, m)
				}
			}
			for i, cp := range ix.Checkpoints {
				end := ix.OutSize
				if i+1 < len(ix.Checkpoints) {
					end = ix.Checkpoints[i+1].Out
				}
				if end > cp.Out && end <= int64(len(data)) {
					check(cp.Out, end-cp.Out)
				}
			}
			check(0, min(ix.OutSize, int64(len(data))))
			if mismatches == 0 {
				t.Fatal("the lie went unnoticed by every whole-span read")
			}
		})
	}
}

// TestUnmarshalRejectsBadGeometry: each way a sidecar can contradict
// itself is refused at parse time, before anything is read through it.
func TestUnmarshalRejectsBadGeometry(t *testing.T) {
	payload, _ := fixture(t, 4000, 6)
	ix, err := Build(payload, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Checkpoints) < 4 {
		t.Fatalf("only %d checkpoints", len(ix.Checkpoints))
	}
	marshal := func(edit func(ix *Index)) []byte {
		blob, err := edited(ix, edit).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	if _, err := Unmarshal(marshal(func(*Index) {})); err != nil {
		t.Fatalf("honest index refused: %v", err)
	}
	hugeCount := marshal(func(*Index) {})
	binary.LittleEndian.PutUint32(hugeCount[22:], 1<<31)
	cases := map[string][]byte{
		"equal bits":           marshal(func(c *Index) { c.Checkpoints[2].Bit = c.Checkpoints[1].Bit }),
		"decreasing bits":      marshal(func(c *Index) { c.Checkpoints[2].Bit = c.Checkpoints[1].Bit - 1 }),
		"equal outs":           marshal(func(c *Index) { c.Checkpoints[2].Out = c.Checkpoints[1].Out }),
		"decreasing outs":      marshal(func(c *Index) { c.Checkpoints[2].Out = c.Checkpoints[1].Out - 1 }),
		"negative bit":         marshal(func(c *Index) { c.Checkpoints[0].Bit = -5 }),
		"out past OutSize":     marshal(func(c *Index) { c.OutSize = c.Checkpoints[3].Out - 1 }),
		"bit past EndBit":      marshal(func(c *Index) { c.EndBit = c.Checkpoints[3].Bit }),
		"negative OutSize":     marshal(func(c *Index) { c.OutSize = -1 }),
		"impossible expansion": marshal(func(c *Index) { c.OutSize = 1 << 50 }),
		"no checkpoints":       marshal(func(c *Index) { c.Checkpoints = nil }),
		"count beyond blob":    hugeCount,
	}
	for name, blob := range cases {
		if _, err := Unmarshal(blob); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
