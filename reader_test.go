package pugz

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"

	"repro/baseline"
	"repro/internal/fastq"
)

func TestStreamingReaderMatchesWhole(t *testing.T) {
	data := genFastq(40000, 31)
	for _, level := range []int{1, 6, 9} {
		gz := gzCorpus(t, 40000, 31, level)
		r, err := NewReaderBytes(gz, StreamOptions{
			Threads:              4,
			BatchCompressedBytes: 256 << 10, // force many batches
			MinChunk:             16 << 10,
			VerifyChecksums:      true,
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("level %d: stream output mismatch (%d vs %d bytes)", level, len(out), len(data))
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStreamingReaderMultiMember(t *testing.T) {
	a := genFastq(8000, 32)
	b := genFastq(8000, 33)
	ga := gzCorpus(t, 8000, 32, 6)
	gb := gzCorpus(t, 8000, 33, 1)
	gz := append(append([]byte{}, ga...), gb...)
	r, err := NewReaderBytes(gz, StreamOptions{Threads: 3, BatchCompressedBytes: 128 << 10, MinChunk: 8 << 10, VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, a...), b...)
	if !bytes.Equal(out, want) {
		t.Fatal("multi-member stream mismatch")
	}
}

func TestStreamingReaderSmallReads(t *testing.T) {
	data := genFastq(4000, 34)
	gz := gzCorpus(t, 4000, 34, 6)
	r, err := NewReaderBytes(gz, StreamOptions{Threads: 2, BatchCompressedBytes: 64 << 10, MinChunk: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out bytes.Buffer
	buf := make([]byte, 137) // deliberately odd read size
	for {
		n, err := r.Read(buf)
		out.Write(buf[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("small-read stream mismatch")
	}
	// Reading after EOF keeps returning EOF.
	if _, err := r.Read(buf); err != io.EOF {
		t.Fatalf("post-EOF read: %v", err)
	}
}

func TestStreamingReaderEarlyClose(t *testing.T) {
	data := genFastq(30000, 35)
	gz, _ := baseline.Compress(data, 6)
	r, err := NewReaderBytes(gz, StreamOptions{Threads: 4, BatchCompressedBytes: 64 << 10, MinChunk: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1000)
	if _, err := r.Read(buf); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Double close is fine.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingReaderReadAfterClose pins the Read-after-Close error
// contract: an early Close truncates the stream, so later Reads must
// report ErrReaderClosed (matching os.ErrClosed) — never a clean
// io.EOF a consumer could mistake for a complete stream. A Reader that
// already delivered its whole stream keeps reporting io.EOF.
func TestStreamingReaderReadAfterClose(t *testing.T) {
	gz := gzCorpus(t, 20000, 38, 6)

	t.Run("early-close", func(t *testing.T) {
		r, err := NewReaderBytes(gz, StreamOptions{Threads: 2, BatchCompressedBytes: 64 << 10, MinChunk: 8 << 10})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1000)
		if _, err := r.Read(buf); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = r.Read(buf)
		if !errors.Is(err, ErrReaderClosed) {
			t.Fatalf("Read after Close: %v, want ErrReaderClosed", err)
		}
		if !errors.Is(err, os.ErrClosed) {
			t.Fatalf("ErrReaderClosed should match os.ErrClosed, got %v", err)
		}
		if err == io.EOF {
			t.Fatal("truncated-by-Close stream reported as clean EOF")
		}
		// The error is sticky and Close stays idempotent.
		if _, err := r.Read(buf); !errors.Is(err, ErrReaderClosed) {
			t.Fatalf("second Read after Close: %v", err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("close-before-first-read", func(t *testing.T) {
		r, err := NewReaderBytes(gz, StreamOptions{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(make([]byte, 16)); !errors.Is(err, ErrReaderClosed) {
			t.Fatalf("Read on closed reader: %v, want ErrReaderClosed", err)
		}
	})

	t.Run("complete-stream-keeps-eof", func(t *testing.T) {
		r, err := NewReaderBytes(gz, StreamOptions{Threads: 2, BatchCompressedBytes: 64 << 10, MinChunk: 8 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, r); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(make([]byte, 16)); err != io.EOF {
			t.Fatalf("Read after EOF+Close: %v, want io.EOF", err)
		}
	})
}

func TestStreamingReaderChecksumFailure(t *testing.T) {
	data := genFastq(6000, 36)
	gz, _ := baseline.Compress(data, 6)
	gz[len(gz)-6] ^= 0xff // corrupt stored CRC
	r, err := NewReaderBytes(gz, StreamOptions{Threads: 2, VerifyChecksums: true, BatchCompressedBytes: 64 << 10, MinChunk: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, err = io.ReadAll(r)
	if err == nil {
		t.Fatal("expected checksum error")
	}
}

func TestStreamingReaderBadHeader(t *testing.T) {
	if _, err := NewReaderBytes([]byte("not a gzip file"), StreamOptions{}); err == nil {
		t.Fatal("bad header accepted")
	}
}

func TestStreamingReaderTinyBatches(t *testing.T) {
	// Batch size below the floor still works (clamped to 64 KiB).
	data := fastq.Generate(fastq.GenOptions{Reads: 3000, Seed: 37})
	gz, _ := baseline.Compress(data, 6)
	r, err := NewReaderBytes(gz, StreamOptions{Threads: 2, BatchCompressedBytes: 1, MinChunk: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("tiny-batch mismatch")
	}
}
