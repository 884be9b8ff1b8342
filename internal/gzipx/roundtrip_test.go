package gzipx

import (
	"bytes"
	stdgzip "compress/gzip"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"

	"repro/baseline"
	"repro/internal/flate"
)

// textCorpus builds pseudo-text data that exercises literals, short
// matches, long matches, and runs.
func textCorpus(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"the", "quick", "brown", "fox", "jumps", "over",
		"lazy", "dogs", "ACGT", "and", "again", "sequence", "data"}
	var b bytes.Buffer
	for b.Len() < n {
		b.WriteString(words[rng.Intn(len(words))])
		if rng.Intn(8) == 0 {
			b.WriteByte('\n')
		} else {
			b.WriteByte(' ')
		}
	}
	return b.Bytes()[:n]
}

// stdGunzip decodes every member of gz with compress/gzip, the
// independent oracle round trips are checked against.
func stdGunzip(t *testing.T, gz []byte) []byte {
	t.Helper()
	zr, err := stdgzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// inflateMember decodes a one-member gzip file with this repository's
// parts: ParseHeader, the flate inflater and ReadTrailer, checking the
// trailer against the output and that nothing follows it.
func inflateMember(t *testing.T, gz []byte) []byte {
	t.Helper()
	m, err := ParseHeader(gz)
	if err != nil {
		t.Fatal(err)
	}
	out, endBit, err := flate.DecompressSized(gz[m.HeaderLen:], 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := bytes.NewReader(gz[m.HeaderLen+int((endBit+7)/8):])
	crc, isize, err := ReadTrailer(tr)
	if err != nil || crc != crc32.ChecksumIEEE(out) || isize != uint32(len(out)) || tr.Len() != 0 {
		t.Fatalf("trailer crc %08x isize %d (err %v, %d bytes after it) for %d bytes of output", crc, isize, err, tr.Len(), len(out))
	}
	return out
}

func dnaCorpus(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	const alpha = "ACGT"
	for i := range out {
		out[i] = alpha[rng.Intn(4)]
	}
	return out
}

func TestRoundTripAllLevels(t *testing.T) {
	corpora := map[string][]byte{
		"text":  textCorpus(200_000, 1),
		"dna":   dnaCorpus(200_000, 2),
		"empty": {},
		"tiny":  []byte("a"),
		"runs":  bytes.Repeat([]byte("x"), 100_000),
	}
	for name, data := range corpora {
		for level := 0; level <= 9; level++ {
			gz, err := baseline.Compress(data, level)
			if err != nil {
				t.Fatalf("%s level %d: compress: %v", name, level, err)
			}
			if dec := stdGunzip(t, gz); !bytes.Equal(dec, data) {
				t.Fatalf("%s level %d: roundtrip mismatch (%d vs %d bytes)", name, level, len(dec), len(data))
			}
		}
	}
}

// TestStdlibCanReadOurs is the strongest conformance check we have:
// the standard library's gzip reader must accept every stream we emit.
func TestStdlibCanReadOurs(t *testing.T) {
	for _, n := range []int{0, 1, 100, 65535, 65536, 300_000} {
		data := textCorpus(n, int64(n))
		for level := 0; level <= 9; level++ {
			gz, err := baseline.Compress(data, level)
			if err != nil {
				t.Fatalf("n=%d level=%d: %v", n, level, err)
			}
			zr, err := stdgzip.NewReader(bytes.NewReader(gz))
			if err != nil {
				t.Fatalf("n=%d level=%d: stdlib reject header: %v", n, level, err)
			}
			var out bytes.Buffer
			if _, err := out.ReadFrom(zr); err != nil {
				t.Fatalf("n=%d level=%d: stdlib inflate: %v", n, level, err)
			}
			if err := zr.Close(); err != nil {
				t.Fatalf("n=%d level=%d: stdlib close (CRC): %v", n, level, err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatalf("n=%d level=%d: stdlib output mismatch", n, level)
			}
		}
	}
}

// TestWeCanReadStdlib checks the reverse direction: our header parser,
// inflater and trailer reader must accept members produced by
// compress/gzip.
func TestWeCanReadStdlib(t *testing.T) {
	data := textCorpus(300_000, 7)
	for _, level := range []int{stdgzip.BestSpeed, stdgzip.DefaultCompression, stdgzip.BestCompression, stdgzip.HuffmanOnly} {
		var buf bytes.Buffer
		zw, err := stdgzip.NewWriterLevel(&buf, level)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if dec := inflateMember(t, buf.Bytes()); !bytes.Equal(dec, data) {
			t.Fatalf("level %d: mismatch", level)
		}
	}
}

func TestMultiMember(t *testing.T) {
	a := textCorpus(50_000, 3)
	b := dnaCorpus(50_000, 4)
	ga, err := baseline.Compress(a, 6)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := baseline.Compress(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	dec := stdGunzip(t, append(append([]byte{}, ga...), gb...))
	want := append(append([]byte{}, a...), b...)
	if !bytes.Equal(dec, want) {
		t.Fatal("multi-member concatenation mismatch")
	}
}

func TestClassifyXFL(t *testing.T) {
	cases := []struct {
		level int
		want  CompressionClass
	}{
		{1, ClassLowest}, {2, ClassNormal}, {6, ClassNormal}, {8, ClassNormal}, {9, ClassHighest},
	}
	for _, c := range cases {
		gz, err := baseline.Compress([]byte("hello world hello world"), c.level)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ParseHeader(gz)
		if err != nil {
			t.Fatal(err)
		}
		if got := ClassifyXFL(m.XFL); got != c.want {
			t.Errorf("level %d: class %v, want %v", c.level, got, c.want)
		}
	}
}
