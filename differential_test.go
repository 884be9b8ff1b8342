package pugz

// Differential tests: every compression level, both directions,
// against the standard library's compress/gzip. These lock down the
// byte-exactness claims the paper makes (and that the streaming
// refactor must preserve): baseline.Compress output must be readable by
// any gzip, and any gzip's output must decompress byte-identically
// through both the slice API and the streaming API at any thread
// count.

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"testing"

	"repro/baseline"
)

// stdGzip compresses with the standard library at the given level.
func stdGzip(t *testing.T, data []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stdGunzip decompresses all members with the standard library.
func stdGunzip(gz []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	return io.ReadAll(zr)
}

// streamDecompress runs the full streaming pipeline over gz.
func streamDecompress(t *testing.T, gz []byte, o StreamOptions) ([]byte, error) {
	t.Helper()
	r, err := NewReaderBytes(gz, o)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

// TestDifferentialCompressVsStdlib: baseline.Compress at every level must
// be decodable by compress/gzip, byte-identically.
func TestDifferentialCompressVsStdlib(t *testing.T) {
	inputs := map[string][]byte{
		"empty": nil,
		"tiny":  []byte("hello, differential world\n"),
		"fastq": genFastq(4000, 71),
	}
	for name, data := range inputs {
		for level := 0; level <= 9; level++ {
			gz, err := baseline.Compress(data, level)
			if err != nil {
				t.Fatalf("%s level %d: compress: %v", name, level, err)
			}
			got, err := stdGunzip(gz)
			if err != nil {
				t.Fatalf("%s level %d: stdlib reject: %v", name, level, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s level %d: stdlib decoded %d bytes, want %d", name, level, len(got), len(data))
			}
		}
	}
}

// TestDifferentialDecompressVsStdlib: stdlib-compressed data at every
// level must decompress byte-identically through the slice API and the
// streaming API across thread counts.
func TestDifferentialDecompressVsStdlib(t *testing.T) {
	data := genFastq(7000, 72)
	for level := 0; level <= 9; level++ {
		gz := stdGzip(t, data, level)
		want, err := stdGunzip(gz)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 2, 4, 8} {
			got, _, err := Decompress(gz, Options{
				Threads:         threads,
				MinChunk:        16 << 10,
				VerifyChecksums: true,
			})
			if err != nil {
				t.Fatalf("level %d threads %d: Decompress: %v", level, threads, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("level %d threads %d: Decompress mismatch", level, threads)
			}
			streamed, err := streamDecompress(t, gz, StreamOptions{
				Threads:              threads,
				BatchCompressedBytes: 128 << 10,
				MinChunk:             16 << 10,
				VerifyChecksums:      true,
			})
			if err != nil {
				t.Fatalf("level %d threads %d: NewReader: %v", level, threads, err)
			}
			if !bytes.Equal(streamed, want) {
				t.Fatalf("level %d threads %d: NewReader mismatch", level, threads)
			}
		}
	}
}

// TestDifferentialEmptyInput: an empty member roundtrips through every
// path, and a zero-length file behaves deterministically.
func TestDifferentialEmptyInput(t *testing.T) {
	gz := stdGzip(t, nil, 6)
	out, _, err := Decompress(gz, Options{Threads: 4, VerifyChecksums: true})
	if err != nil {
		t.Fatalf("empty member via Decompress: %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("empty member decoded %d bytes", len(out))
	}
	streamed, err := streamDecompress(t, gz, StreamOptions{Threads: 4, VerifyChecksums: true})
	if err != nil {
		t.Fatalf("empty member via NewReader: %v", err)
	}
	if len(streamed) != 0 {
		t.Fatalf("empty member streamed %d bytes", len(streamed))
	}

	// A zero-byte file: the slice API decodes zero members; the
	// streaming API rejects it up front (like compress/gzip, which
	// returns an error from NewReader).
	out, _, err = Decompress(nil, Options{})
	if err != nil || len(out) != 0 {
		t.Fatalf("zero-byte file via Decompress: %v, %d bytes", err, len(out))
	}
	if _, err := NewReaderBytes(nil, StreamOptions{}); err == nil {
		t.Fatal("zero-byte file accepted by NewReader")
	}
}

// TestDifferentialMultiMember: members from both compressors, at
// different levels, concatenated — all readers must agree.
func TestDifferentialMultiMember(t *testing.T) {
	parts := [][]byte{
		genFastq(3000, 73),
		nil, // empty member in the middle
		genFastq(5000, 74),
		[]byte("trailing small member\n"),
	}
	var gz, want []byte
	for i, p := range parts {
		want = append(want, p...)
		if i%2 == 0 {
			m, err := baseline.Compress(p, 1+i*3) // levels 1, 7
			if err != nil {
				t.Fatal(err)
			}
			gz = append(gz, m...)
		} else {
			gz = append(gz, stdGzip(t, p, 9)...)
		}
	}
	std, err := stdGunzip(gz)
	if err != nil {
		t.Fatalf("stdlib on concatenation: %v", err)
	}
	if !bytes.Equal(std, want) {
		t.Fatal("stdlib concatenation mismatch")
	}
	got, _, err := Decompress(gz, Options{Threads: 4, MinChunk: 16 << 10, VerifyChecksums: true})
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("Decompress concatenation mismatch")
	}
	streamed, err := streamDecompress(t, gz, StreamOptions{
		Threads:              4,
		BatchCompressedBytes: 64 << 10,
		MinChunk:             8 << 10,
		VerifyChecksums:      true,
	})
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if !bytes.Equal(streamed, want) {
		t.Fatal("NewReader concatenation mismatch")
	}
}

// TestDifferentialParallelCompress: CompressParallel output must be
// one ordinary member any gzip can read, independent of thread count.
func TestDifferentialParallelCompress(t *testing.T) {
	data := genFastq(8000, 75)
	var first []byte
	for _, threads := range []int{1, 2, 4, 7} {
		gz, err := baseline.CompressParallel(data, 6, threads)
		if err != nil {
			t.Fatalf("threads %d: %v", threads, err)
		}
		got, err := stdGunzip(gz)
		if err != nil {
			t.Fatalf("threads %d: stdlib reject: %v", threads, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("threads %d: mismatch", threads)
		}
		if first == nil {
			first = gz
		} else if !bytes.Equal(first, gz) {
			t.Fatalf("threads %d: output depends on thread count", threads)
		}
	}
}

// TestDifferentialRoundTripMatrix drives baseline.Compress straight into
// pugz's own readers across levels and thread counts, cross-checked
// with the stdlib — the full commutation square on one input.
func TestDifferentialRoundTripMatrix(t *testing.T) {
	data := genFastq(6000, 76)
	for level := 0; level <= 9; level++ {
		gz := gzCorpus(t, 6000, 76, level)
		std, err := stdGunzip(gz)
		if err != nil {
			t.Fatalf("level %d: stdlib: %v", level, err)
		}
		for _, threads := range []int{1, 3, 6} {
			name := fmt.Sprintf("level %d threads %d", level, threads)
			got, _, err := Decompress(gz, Options{Threads: threads, MinChunk: 16 << 10, VerifyChecksums: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(got, std) || !bytes.Equal(got, data) {
				t.Fatalf("%s: mismatch", name)
			}
			streamed, err := streamDecompress(t, gz, StreamOptions{
				Threads:              threads,
				BatchCompressedBytes: 96 << 10,
				MinChunk:             16 << 10,
				VerifyChecksums:      true,
			})
			if err != nil {
				t.Fatalf("%s: stream: %v", name, err)
			}
			if !bytes.Equal(streamed, data) {
				t.Fatalf("%s: stream mismatch", name)
			}
		}
	}
}
