package gzipx

// The gzip writers live in package baseline (the decompressor does not
// link them); these tests check what they write as gzip members: read
// back by the standard library, at every thread count.

import (
	"bytes"
	stdgzip "compress/gzip"
	"io"
	"testing"

	"repro/baseline"
)

func TestCompressParallelRoundTrip(t *testing.T) {
	data := textCorpus(900_000, 21)
	for _, level := range []int{0, 1, 6, 9} {
		for _, threads := range []int{1, 3, 8} {
			gz, err := baseline.CompressParallel(data, level, threads)
			if err != nil {
				t.Fatalf("level %d threads %d: %v", level, threads, err)
			}
			if out := stdGunzip(t, gz); !bytes.Equal(out, data) {
				t.Fatalf("level %d threads %d: mismatch", level, threads)
			}
		}
	}
}

func TestCompressParallelDeterministicAcrossThreads(t *testing.T) {
	// Chunks are independent, so the byte output must not depend on
	// the number of worker goroutines (five 256 KiB chunks here).
	data := dnaCorpus(1_100_000, 22)
	a, err := baseline.CompressParallel(data, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := baseline.CompressParallel(data, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("thread count changed output bytes")
	}
}

func TestCompressParallelStdlibReads(t *testing.T) {
	data := textCorpus(400_000, 23)
	gz, err := baseline.CompressParallel(data, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := stdgzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if err := zr.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("stdlib mismatch")
	}
}

func TestCompressParallelEmptyAndTiny(t *testing.T) {
	for _, n := range []int{0, 1, 100} {
		data := textCorpus(n, int64(24+n))
		gz, err := baseline.CompressParallel(data, 6, 4)
		if err != nil {
			t.Fatal(err)
		}
		if out := stdGunzip(t, gz); !bytes.Equal(out, data) {
			t.Fatalf("n=%d mismatch", n)
		}
	}
}

func TestCompressParallelRatioTradeoff(t *testing.T) {
	// Window resets at chunk boundaries cost some ratio vs the
	// sequential compressor — but not much at 256 KiB chunks.
	data := textCorpus(2_000_000, 25)
	seq, err := baseline.Compress(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	par, err := baseline.CompressParallel(data, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) < len(seq) {
		t.Fatalf("parallel (%d) beats sequential (%d)?", len(par), len(seq))
	}
	if float64(len(par)) > 1.10*float64(len(seq)) {
		t.Fatalf("parallel ratio loss too high: %d vs %d", len(par), len(seq))
	}
}

func TestCompressParallelBadLevel(t *testing.T) {
	if _, err := baseline.CompressParallel([]byte("x"), 11, 1); err == nil {
		t.Fatal("bad level accepted")
	}
}
