package pugz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"repro/baseline"
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

// allocCorpus is a seeded 3 MB FASTQ text and its gzip file.
func allocCorpus(t *testing.T) (data, gz []byte) {
	t.Helper()
	data = genFastq(12000, 41)
	if len(data) > 4<<20 {
		t.Fatalf("corpus is %d bytes, want at most 4 MiB", len(data))
	}
	return data, gzCorpus(t, 12000, 41, 6)
}

// TestDecompressAllocBudget: every member decodes into one output
// buffer, presized from the last trailer's ISIZE and grown from the
// expansion observed so far, and the result is that buffer. One member
// costs about one byte allocated per output byte (7 when it grew by
// append and re-copied the member). Many members cost at most 2.5: the
// BGZF form (47 members and the empty end-of-file member, whose ISIZE
// hints nothing) and three 1 MiB members (hinted with the last one's
// size) measured 7.7 and 4.4 when each member had a buffer of its own
// that was then appended to the output. An expansion that does not
// carry over, 2 MiB of zeros (~1000x) before 2 MiB of random bytes,
// must not size the second member's room from the first's: reserving
// the rest of the file at 1000x would allocate ~550 bytes per output
// byte here (measured 3.0; 4.4 when each member had its own buffer).
func TestDecompressAllocBudget(t *testing.T) {
	data, gz := allocCorpus(t)
	var three []byte
	for rest := data; len(rest) > 0; {
		n := min(len(rest), 1<<20)
		m, err := baseline.Compress(rest[:n], 6)
		if err != nil {
			t.Fatal(err)
		}
		three, rest = append(three, m...), rest[n:]
	}
	noise := make([]byte, 2<<20)
	rand.New(rand.NewSource(44)).Read(noise)
	zeros := make([]byte, 2<<20)
	skewed := append(stdGzip(t, zeros, 6), stdGzip(t, noise, 6)...)
	for _, in := range []struct {
		name   string
		gz     []byte
		want   []byte
		budget float64
		par    bool // also at two threads, where span buffers are sized by the same guess
	}{
		{"one member", gz, data, 1.5, false},
		{"BGZF", bgzfStd(t, data), data, 2.5, false},
		{"three members", three, data, 2.5, false},
		{"zeros then noise", skewed, append(zeros, noise...), 4, true},
	} {
		runs := map[string]func() ([]byte, error){
			"Decompress": func() ([]byte, error) {
				out, _, err := Decompress(in.gz, Options{Threads: 1})
				return out, err
			},
			"GunzipSequential": func() ([]byte, error) { return GunzipSequential(in.gz) },
		}
		if in.par {
			runs["Decompress T=2"] = func() ([]byte, error) {
				out, _, err := Decompress(in.gz, Options{Threads: 2, MinChunk: 256 << 10})
				return out, err
			}
		}
		for name, run := range runs {
			var out []byte
			var err error
			alloc := allocBytes(func() { out, err = run() })
			if err != nil || !bytes.Equal(out, in.want) {
				t.Fatalf("%s, %s: err=%v, output equal=%v", in.name, name, err, bytes.Equal(out, in.want))
			}
			ratio := float64(alloc) / float64(len(in.want))
			t.Logf("%s, %s: %.2f bytes allocated per output byte", in.name, name, ratio)
			if ratio > in.budget {
				t.Errorf("%s, %s allocated %.2f bytes per output byte, budget %.1f", in.name, name, ratio, in.budget)
			}
		}
	}
}

// withISize returns a copy of gz whose last four bytes (the final
// member's ISIZE) say isize.
func withISize(gz []byte, isize uint32) []byte {
	f := bytes.Clone(gz)
	binary.LittleEndian.PutUint32(f[len(f)-4:], isize)
	return f
}

// TestDecompressForgedISize: ISIZE is a capacity hint only. A wrong,
// wrapped or forged one changes no byte, still fails verification, and
// reserves at most the clamp multiple of the compressed input.
func TestDecompressForgedISize(t *testing.T) {
	data := genFastq(3000, 42)
	gz := gzCorpus(t, 3000, 42, 6)
	if want, _ := stdGunzip(gz); !bytes.Equal(want, data) {
		t.Fatal("stdlib disagrees with the corpus")
	}
	n := uint32(len(data))
	for _, isize := range []uint32{0, n - 1, n + 1, 0xFFFFFFFF} {
		forged := withISize(gz, isize)
		for _, threads := range []int{1, 2} {
			out, _, err := Decompress(forged, Options{Threads: threads, MinChunk: 32 << 10})
			if err != nil || !bytes.Equal(out, data) {
				t.Fatalf("ISIZE %d T=%d: err=%v, output equal=%v", isize, threads, err, bytes.Equal(out, data))
			}
			_, _, err = Decompress(forged, Options{Threads: threads, MinChunk: 32 << 10, VerifyChecksums: true})
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("ISIZE %d T=%d verified: err=%v, want ErrChecksum", isize, threads, err)
			}
		}
	}
	forged := withISize(gz, 0xFFFFFFFF)
	alloc := allocBytes(func() { _, _, _ = Decompress(forged, Options{Threads: 1}) })
	if limit := uint64(16*len(forged) + len(data)); alloc > limit {
		t.Fatalf("ISIZE 0xFFFFFFFF allocated %d bytes, limit %d", alloc, limit)
	}
}

// TestDecompressManyMembersTinyLast: the hint comes from the last
// member's ISIZE, which says nothing about the first; empty members and
// a tiny last one must decode exactly at any thread count.
func TestDecompressManyMembersTinyLast(t *testing.T) {
	text := genFastq(400, 43)
	var gz, want []byte
	for i := 0; i < 64; i++ {
		var part []byte
		switch {
		case i == 63:
			part = []byte("@\n")
		case i%3 == 1:
			part = text[i*1000 : i*1000+5000]
		}
		m, err := baseline.Compress(part, 6)
		if err != nil {
			t.Fatal(err)
		}
		gz = append(gz, m...)
		want = append(want, part...)
	}
	if std, err := stdGunzip(gz); err != nil || !bytes.Equal(std, want) {
		t.Fatalf("stdlib: err=%v, output equal=%v", err, bytes.Equal(std, want))
	}
	for _, threads := range []int{1, 2} {
		out, _, err := Decompress(gz, Options{Threads: threads, VerifyChecksums: true})
		if err != nil || !bytes.Equal(out, want) {
			t.Fatalf("T=%d: err=%v, output equal=%v", threads, err, bytes.Equal(out, want))
		}
	}
	if out, err := GunzipSequential(gz); err != nil || !bytes.Equal(out, want) {
		t.Fatalf("GunzipSequential: err=%v, output equal=%v", err, bytes.Equal(out, want))
	}
}

// TestDecompressAllEmptyMembersIsNil: a file of empty members decodes
// to a nil slice, as it did when every member was appended to nil.
func TestDecompressAllEmptyMembersIsNil(t *testing.T) {
	empty, err := baseline.Compress(nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, gz := range [][]byte{empty, bytes.Repeat(empty, 64)} {
		for _, threads := range []int{1, 2} {
			out, _, err := Decompress(gz, Options{Threads: threads, VerifyChecksums: true})
			if err != nil || out != nil {
				t.Fatalf("%d-byte file T=%d: err=%v, out=%#v, want nil", len(gz), threads, err, out)
			}
		}
		if out, err := GunzipSequential(gz); err != nil || out != nil {
			t.Fatalf("GunzipSequential %d-byte file: err=%v, out=%#v, want nil", len(gz), err, out)
		}
	}
}

// TestReaderAllocBudget: a streaming decode at two threads recycles
// what it can. Read hands each chunk's buffer back to the scheduler's
// free list once copied out, and pass-1 buffers are sized from the span
// instead of grown by doubling, so what remains is mostly the source
// window and its reads. The batch pipeline this replaced, which
// allocated a fresh output buffer per batch, measured 3.1 bytes per
// output byte here; the chunk scheduler measures about 0.9.
func TestReaderAllocBudget(t *testing.T) {
	data := genFastq(32000, 43)
	gz := stdGzip(t, data, 6)
	buf := make([]byte, 256<<10)
	var n int64
	var err error
	alloc := allocBytes(func() {
		var r *Reader
		if r, err = NewReader(bytes.NewReader(gz), StreamOptions{Threads: 2}); err != nil {
			return
		}
		n, err = io.CopyBuffer(io.Discard, struct{ io.Reader }{r}, buf)
		r.Close()
	})
	if err != nil || n != int64(len(data)) {
		t.Fatalf("err=%v, %d bytes, want %d", err, n, len(data))
	}
	ratio := float64(alloc) / float64(len(data))
	t.Logf("%.2f bytes allocated per output byte", ratio)
	if ratio > readerAllocBudget {
		t.Errorf("NewReader at T=2 allocated %.2f bytes per output byte, budget %.1f", ratio, readerAllocBudget)
	}
}

// readerAllocBudget sits between the chunk scheduler's measured ~0.9
// and the batch pipeline's 3.1.
const readerAllocBudget = 2.0

// TestIndexBuildAllocBudget: a streaming index build hands its source
// window's array and its reader's segment buffers on (srcbuf's
// Recycle), so a build that follows another allocates, beyond the 32
// KiB window of each checkpoint it keeps, less than the gzip file it
// reads. Without the recycling each build allocated its window anew,
// up to twice the gzip size, and ~1 MB of 512 KiB segment buffers.
func TestIndexBuildAllocBudget(t *testing.T) {
	_, gz := allocCorpus(t)
	var ix *Index
	var err error
	alloc := allocBytes(func() {
		ix, err = NewIndexFromReader(bytes.NewReader(gz), 256<<10, StreamOptions{Threads: 2})
	})
	if err != nil {
		t.Fatal(err)
	}
	windows := uint64(ix.Checkpoints()) * (32 << 10)
	t.Logf("%d bytes allocated for %d checkpoints (%d bytes of windows), gzip %d bytes",
		alloc, ix.Checkpoints(), windows, len(gz))
	if alloc > windows && alloc-windows >= uint64(len(gz)) {
		t.Errorf("index build allocated %d bytes beyond its %d bytes of checkpoint windows, want less than the gzip's %d",
			alloc-windows, windows, len(gz))
	}
}
