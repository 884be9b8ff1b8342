package pugz_test

// Regression tests for the File.ReadAt / Size edge semantics the HTTP
// serving layer (internal/serve) leans on: reads starting exactly at
// EOF, zero-length reads, and reads overshooting the end must each map
// deterministically to (n, io.EOF)/(0, nil) — and must not wedge a
// pooled cursor, so later in-range reads still return oracle bytes.

import (
	"bytes"
	"io"
	"testing"

	pugz "repro"
	"repro/baseline"
)

// edgeFile opens the fixture in the three configurations the server
// uses: cold (no index), auto-indexed via deep seeks, and with an
// attached whole-file checkpoint index.
func edgeFiles(t *testing.T, gz []byte) map[string]*pugz.File {
	t.Helper()
	cold, err := pugz.NewFileBytes(gz, pugz.FileOptions{Threads: 2, MinChunk: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := pugz.NewFileBytes(gz, pugz.FileOptions{Threads: 2, MinChunk: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := indexed.BuildIndex(64 << 10); err != nil {
		t.Fatal(err)
	}
	return map[string]*pugz.File{"cold": cold, "indexed": indexed}
}

func TestFileReadAtEOFEdges(t *testing.T) {
	data, gz := fileFixture(t)
	size := int64(len(data))
	for name, f := range edgeFiles(t, gz) {
		f := f
		t.Run(name, func(t *testing.T) {
			defer f.Close()
			p := make([]byte, 64)

			// A read starting exactly at EOF: (0, io.EOF), repeatably —
			// three in a row must not wedge or poison a cursor.
			for i := 0; i < 3; i++ {
				if n, err := f.ReadAt(p, size); n != 0 || err != io.EOF {
					t.Fatalf("ReadAt(EOF) #%d: n=%d err=%v, want 0, io.EOF", i, n, err)
				}
			}
			// Past EOF: same contract.
			if n, err := f.ReadAt(p, size+100); n != 0 || err != io.EOF {
				t.Fatalf("ReadAt(EOF+100): n=%d err=%v, want 0, io.EOF", n, err)
			}

			// Zero-length reads return (0, nil) at any offset, including
			// at and past EOF (deterministic, no decode work).
			for _, off := range []int64{0, size / 2, size, size + 5} {
				if n, err := f.ReadAt(p[:0], off); n != 0 || err != nil {
					t.Fatalf("ReadAt(len=0, %d): n=%d err=%v, want 0, nil", off, n, err)
				}
			}

			// A read overshooting the end is short with io.EOF (the
			// "suffix range larger than the file" shape, pre-clamping).
			big := make([]byte, size+10)
			n, err := f.ReadAt(big, 0)
			if int64(n) != size || err != io.EOF {
				t.Fatalf("overshoot read: n=%d err=%v, want %d, io.EOF", n, err, size)
			}
			if !bytes.Equal(big[:n], data) {
				t.Fatal("overshoot read content mismatch")
			}

			// The at-EOF traffic above must not have wedged the pool:
			// in-range reads still serve oracle bytes.
			for _, off := range []int64{0, size / 3, size - 64} {
				if _, err := f.ReadAt(p, off); err != nil && err != io.EOF {
					t.Fatalf("post-edge ReadAt(%d): %v", off, err)
				}
				if !bytes.Equal(p, data[off:off+64]) {
					t.Fatalf("post-edge ReadAt(%d) content mismatch", off)
				}
			}

			// The EOF encountered above revealed (or confirmed) the true
			// size; Size must agree with the oracle either way.
			got, err := f.Size()
			if err != nil {
				t.Fatal(err)
			}
			if got != size {
				t.Fatalf("Size = %d, want %d", got, size)
			}
			if cached, ok := f.CachedSize(); !ok || cached != size {
				t.Fatalf("CachedSize = %d,%v after Size, want %d,true", cached, ok, size)
			}
		})
	}
}

// TestFileEmptyMember pins the degenerate blob the server must still
// answer deterministically: a gzip member with an empty payload.
func TestFileEmptyMember(t *testing.T) {
	gz, err := baseline.Compress(nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	f, err := pugz.NewFileBytes(gz, pugz.FileOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	p := make([]byte, 16)
	if n, err := f.ReadAt(p, 0); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt(0) on empty: n=%d err=%v, want 0, io.EOF", n, err)
	}
	if n, err := f.ReadAt(p[:0], 0); n != 0 || err != nil {
		t.Fatalf("ReadAt(len=0) on empty: n=%d err=%v, want 0, nil", n, err)
	}
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	if size != 0 {
		t.Fatalf("Size = %d, want 0", size)
	}
}

// TestFileInflatedBytes sanity-checks the read-amplification counter:
// zero before any read, and at least the bytes returned after reads.
func TestFileInflatedBytes(t *testing.T) {
	data, gz := fileFixture(t)
	f, err := pugz.NewFileBytes(gz, pugz.FileOptions{Threads: 2, MinChunk: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := f.InflatedBytes(); got != 0 {
		t.Fatalf("InflatedBytes before any read = %d", got)
	}
	p := make([]byte, 4096)
	off := int64(len(data)) / 2
	if _, err := f.ReadAt(p, off); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	// A deep unindexed read decodes (or skips over) everything up to
	// the target plus the read itself.
	if got := f.InflatedBytes(); got < off+int64(len(p)) {
		t.Fatalf("InflatedBytes = %d after deep read at %d", got, off)
	}
}
