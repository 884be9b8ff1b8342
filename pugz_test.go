package pugz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"repro/baseline"
	"repro/internal/bitio"
	"repro/internal/flate"
)

func TestDecompressRoundTrip(t *testing.T) {
	data := genFastq(6000, 1)
	for _, level := range []int{1, 6, 9} {
		gz, err := baseline.Compress(data, level)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 4} {
			out, st, err := Decompress(gz, Options{
				Threads:         threads,
				MinChunk:        8 << 10,
				VerifyChecksums: true,
			})
			if err != nil {
				t.Fatalf("level %d threads %d: %v", level, threads, err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("level %d threads %d: mismatch", level, threads)
			}
			if st.Members != 1 {
				t.Fatalf("want 1 member, got %d", st.Members)
			}
		}
	}
}

func TestDecompressMultiMember(t *testing.T) {
	a, b := genFastq(2000, 2), genFastq(2000, 3)
	ga, _ := baseline.Compress(a, 6)
	gb, _ := baseline.Compress(b, 1)
	gz := append(append([]byte{}, ga...), gb...)
	out, st, err := Decompress(gz, Options{Threads: 4, MinChunk: 8 << 10, VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, a...), b...)
	if !bytes.Equal(out, want) {
		t.Fatal("multi-member mismatch")
	}
	if st.Members != 2 {
		t.Fatalf("want 2 members, got %d", st.Members)
	}
}

func TestCorruptChecksumDetected(t *testing.T) {
	data := genFastq(2000, 4)
	gz, _ := baseline.Compress(data, 6)
	// Flip a bit in the stored CRC (last 8 bytes are CRC+ISIZE).
	gz[len(gz)-6] ^= 0xff
	if _, _, err := Decompress(gz, Options{Threads: 2, VerifyChecksums: true}); err == nil {
		t.Fatal("expected checksum error")
	}
	// Without verification the (content-intact) stream still inflates.
	out, _, err := Decompress(gz, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("content mismatch")
	}
}

func TestScanBlocks(t *testing.T) {
	fastqData := genFastq(6000, 5)
	fastqGz, _ := baseline.Compress(fastqData, 6)
	for _, c := range []struct {
		name    string
		gz      []byte
		outSize int   // decompressed bytes the blocks must cover
		err     error // non-nil: the scan must fail with it
	}{
		{"fastq level 6", fastqGz, len(fastqData), nil},
		// A stored block of 3 bytes then a match at distance 3: it
		// reaches exactly the first byte, across the block boundary.
		{"match to the first byte", twoBlockMember("abc", 3), 6, nil},
		// The same match after 2 bytes reaches before the stream start.
		{"match before the start", twoBlockMember("ab", 3), 0, flate.ErrDistanceTooFar},
	} {
		blocks, err := ScanBlocks(c.gz)
		if c.err != nil {
			if !errors.Is(err, c.err) {
				t.Fatalf("%s: err = %v, want %v", c.name, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(blocks) < 2 {
			t.Fatalf("%s: want multiple blocks, got %d", c.name, len(blocks))
		}
		if !blocks[len(blocks)-1].Final {
			t.Fatalf("%s: last block must be final", c.name)
		}
		for i := 1; i < len(blocks); i++ {
			if blocks[i].StartBit != blocks[i-1].EndBit {
				t.Fatalf("%s block %d: gap %d -> %d", c.name, i, blocks[i-1].EndBit, blocks[i].StartBit)
			}
			if blocks[i].OutStart != blocks[i-1].OutEnd {
				t.Fatalf("%s block %d: output gap", c.name, i)
			}
		}
		if blocks[len(blocks)-1].OutEnd != int64(c.outSize) {
			t.Fatalf("%s: blocks cover %d output bytes, want %d", c.name, blocks[len(blocks)-1].OutEnd, c.outSize)
		}
	}
}

// twoBlockMember is a one-member gzip file whose DEFLATE stream is a
// stored block holding lit, then a final fixed-Huffman block holding
// one match of length 3 at distance dist (1-4). Its trailer is that of
// the output the match yields when it stays within the stream.
func twoBlockMember(lit string, dist int) []byte {
	rev := func(v uint32, n uint) uint32 { // Huffman codes go MSB first
		var r uint32
		for i := uint(0); i < n; i++ {
			r = r<<1 | (v>>i)&1
		}
		return r
	}
	w := bitio.NewWriter(64)
	w.WriteBits(0, 3) // not final, stored
	w.AlignByte()
	w.WriteBits(uint32(len(lit)), 16)
	w.WriteBits(^uint32(len(lit))&0xffff, 16)
	if err := w.WriteBytes([]byte(lit)); err != nil {
		panic(err)
	}
	w.WriteBits(1|1<<1, 3)                 // final, fixed Huffman
	w.WriteBits(rev(1, 7), 7)              // length symbol 257: length 3
	w.WriteBits(rev(uint32(dist-1), 5), 5) // distance symbol dist-1
	w.WriteBits(0, 7)                      // end of block
	out := []byte(lit)
	for i := 0; i < 3 && dist <= len(out); i++ {
		out = append(out, out[len(out)-dist])
	}
	gz := append([]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255}, w.Bytes()...)
	gz = binary.LittleEndian.AppendUint32(gz, crc32.ChecksumIEEE(out))
	return binary.LittleEndian.AppendUint32(gz, uint32(len(out)))
}

func TestFindBlockAgainstScan(t *testing.T) {
	gz := gzCorpus(t, 8000, 6, 6)
	blocks, err := ScanBlocks(gz)
	if err != nil {
		t.Fatal(err)
	}
	// From the middle of the file, FindBlock must land exactly on a
	// scanned boundary.
	mid := int64(len(gz) / 2)
	bit, err := FindBlock(gz, mid)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range blocks {
		if b.StartBit == bit {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("FindBlock bit %d not on the true block lattice", bit)
	}
}

func TestRandomAccessLowestLevelIsClean(t *testing.T) {
	// Section VII-A: at the lowest compression level, random access is
	// virtually exact — after the first sequence-resolved block,
	// essentially every extracted sequence is unambiguous. The delay to
	// resolution is a few MB (the paper reports 52 MB on real GB-scale
	// files), so the corpus must be tens of MB.
	gz := gzCorpus(t, 150000, 7, 1)
	res, err := RandomAccess(gz, int64(len(gz)/5), RandomAccessOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstResolvedBlock < 0 {
		t.Fatal("no sequence-resolved block found at level 1")
	}
	frac, ok := res.UnambiguousAfterResolved()
	if !ok {
		t.Fatal("no sequences after resolved block")
	}
	if frac < 0.99 {
		t.Fatalf("level 1 unambiguous fraction %.4f, want ≥0.99", frac)
	}
}

func TestRandomAccessTextIsPlausible(t *testing.T) {
	data := genFastq(20000, 8)
	gz := gzCorpus(t, 20000, 8, 6)
	res, err := RandomAccess(gz, int64(len(gz)/2), RandomAccessOptions{MaxOutput: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Text) == 0 {
		t.Fatal("no text decoded")
	}
	// Every non-'?' character of the suffix must occur in the true
	// output at the same (aligned) position. Align by finding the
	// suffix start: the block's OutStart in the full decode.
	blocks, err := ScanBlocks(gz)
	if err != nil {
		t.Fatal(err)
	}
	var outStart int64 = -1
	for _, b := range blocks {
		if b.StartBit == res.BlockBit {
			outStart = b.OutStart
			break
		}
	}
	if outStart < 0 {
		t.Fatal("random-access block not on lattice")
	}
	truth := data[outStart:]
	n := len(res.Text)
	if n > len(truth) {
		t.Fatalf("suffix longer than truth: %d > %d", n, len(truth))
	}
	mismatches := 0
	for i := 0; i < n; i++ {
		if res.Text[i] != Undetermined && res.Text[i] != truth[i] {
			mismatches++
		}
	}
	if mismatches != 0 {
		t.Fatalf("%d resolved characters disagree with the true stream", mismatches)
	}
}

func TestClassify(t *testing.T) {
	data := genFastq(500, 9)
	for level, want := range map[int]CompressionClass{1: ClassLowest, 6: ClassNormal, 9: ClassHighest} {
		gz, _ := baseline.Compress(data, level)
		got, err := Classify(gz)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("level %d: class %v, want %v", level, got, want)
		}
	}
}

// TestFullCircleParallel closes the loop the paper opens: compress in
// parallel (pigz-style, trivial) and decompress in parallel (pugz, the
// hard direction) — output must be exact, and the pugz block scanner
// must cope with the empty stored sync blocks between chunks (the
// "special case" the paper's prototype left unimplemented).
func TestFullCircleParallel(t *testing.T) {
	data := genFastq(20000, 77)
	gz, err := baseline.CompressParallel(data, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := Decompress(gz, Options{Threads: 4, MinChunk: 32 << 10, VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("full-circle mismatch")
	}
	if len(st.Chunks) < 2 {
		t.Errorf("expected parallel chunks, got %d", len(st.Chunks))
	}
	// Random access works on pigz-style files too.
	res, err := RandomAccess(gz, int64(len(gz)/2), RandomAccessOptions{MaxOutput: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Text) == 0 {
		t.Fatal("no random-access output")
	}
}

func TestCompressNamed(t *testing.T) {
	gz, err := baseline.CompressNamed([]byte(strings.Repeat("read data ", 300)), 6, "sample.fastq")
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Decompress(gz, Options{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3000 {
		t.Fatalf("got %d bytes", len(out))
	}
}
