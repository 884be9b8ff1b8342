package bgzf

import (
	"bytes"
	stdgzip "compress/gzip"
	"io"
	"math/rand"
	"testing"

	"repro/internal/deflate"
	"repro/internal/fastq"
)

func corpus(t *testing.T, reads int) []byte {
	t.Helper()
	return fastq.Generate(fastq.GenOptions{Reads: reads, Seed: 61})
}

func TestRoundTrip(t *testing.T) {
	data := corpus(t, 10000)
	for _, level := range []int{1, 6, 9} {
		bz, err := Compress(data, level)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Decompress(bz)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("level %d: mismatch", level)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	bz, err := Compress(nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decompress(bz)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("got %d bytes", len(out))
	}
}

// TestStdlibCompatible: every BGZF file is a valid multi-member gzip
// file, so the standard library must inflate it. (The root package's
// gzip surfaces are checked on BGZF files by its shape matrix.)
func TestStdlibCompatible(t *testing.T) {
	data := corpus(t, 5000)
	bz, err := Compress(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := stdgzip.NewReader(bytes.NewReader(bz))
	if err != nil {
		t.Fatal(err)
	}
	zr.Multistream(true)
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("stdlib mismatch")
	}
}

func TestScan(t *testing.T) {
	data := corpus(t, 10000)
	bz, err := Compress(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := Scan(bz)
	if err != nil {
		t.Fatal(err)
	}
	wantBlocks := (len(data) + MaxBlockInput - 1) / MaxBlockInput
	if len(blocks) != wantBlocks {
		t.Fatalf("%d blocks, want %d", len(blocks), wantBlocks)
	}
	var out int64
	for i, b := range blocks {
		if b.OutOff != out {
			t.Fatalf("block %d: OutOff %d, want %d", i, b.OutOff, out)
		}
		out += b.OutSize
	}
	if out != int64(len(data)) {
		t.Fatalf("blocks cover %d, want %d", out, len(data))
	}
}

func TestMissingEOFDetected(t *testing.T) {
	data := corpus(t, 1000)
	bz, _ := Compress(data, 6)
	noEOF := bz[:len(bz)-28]
	if _, err := Scan(noEOF); err != ErrNoEOF {
		t.Fatalf("want ErrNoEOF, got %v", err)
	}
}

func TestPlainGzipRejected(t *testing.T) {
	data := corpus(t, 1000)
	var gz bytes.Buffer
	zw := stdgzip.NewWriter(&gz)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Scan(gz.Bytes()); err == nil {
		t.Fatal("plain gzip accepted as BGZF")
	}
}

func TestDecompressParallel(t *testing.T) {
	data := corpus(t, 20000)
	bz, _ := Compress(data, 6)
	for _, threads := range []int{1, 2, 4, 8} {
		out, err := DecompressParallel(bz, threads)
		if err != nil {
			t.Fatalf("threads %d: %v", threads, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("threads %d: mismatch", threads)
		}
	}
}

func TestReadAt(t *testing.T) {
	data := corpus(t, 20000)
	bz, _ := Compress(data, 6)
	rng := rand.New(rand.NewSource(2))
	buf := make([]byte, 3000)
	for trial := 0; trial < 30; trial++ {
		off := rng.Int63n(int64(len(data)) - int64(len(buf)))
		n, err := ReadAt(bz, buf, off)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if n != len(buf) || !bytes.Equal(buf, data[off:off+int64(n)]) {
			t.Fatalf("trial %d off %d: mismatch (n=%d)", trial, off, n)
		}
	}
	// Out-of-range offsets.
	if _, err := ReadAt(bz, buf, int64(len(data))); err == nil {
		t.Fatal("past-end accepted")
	}
	if _, err := ReadAt(bz, buf, -1); err == nil {
		t.Fatal("negative accepted")
	}
}

func TestCorruptionDetected(t *testing.T) {
	data := corpus(t, 3000)
	bz, _ := Compress(data, 6)
	blocks, err := Scan(bz)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the middle block's payload.
	mid := blocks[len(blocks)/2]
	bz[mid.Off+mid.Size/2] ^= 0xff
	if _, err := Decompress(bz); err == nil {
		t.Fatal("corruption not detected")
	}
}

// TestCompressionRatioTradeoff documents the paper's Section II point:
// blocked files compress worse than plain gzip because every block
// restarts the window.
func TestCompressionRatioTradeoff(t *testing.T) {
	data := corpus(t, 20000)
	bz, _ := Compress(data, 6)
	payload, _ := deflate.Compress(data, 6)
	gz := len(payload) + 18 // one gzip member: 10-byte header, 8-byte trailer
	if len(bz) <= gz {
		t.Fatalf("BGZF (%d) unexpectedly at least as small as plain gzip (%d)", len(bz), gz)
	}
	// But not catastrophically worse (sanity bound).
	if float64(len(bz)) > 1.5*float64(gz) {
		t.Fatalf("BGZF overhead implausibly high: %d vs %d", len(bz), gz)
	}
}
