package pugz

// Native fuzz targets locking the decompressors against the standard
// library: on any input, neither API may panic; on input the stdlib
// accepts, both APIs must succeed and agree byte-for-byte. The seed
// corpus (testdata/fuzz/...) holds valid single- and multi-member
// files at several levels plus truncated/corrupted variants, so
// mutation starts from meaningful gzip framing.

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/baseline"
	"repro/internal/gzindex"
	"repro/internal/gzipx"
)

// fuzzInputLimit caps the compressed input a fuzz iteration accepts:
// DEFLATE expands at most ~1032x, so this bounds decompressed memory.
const fuzzInputLimit = 64 << 10

// fuzzSeeds returns the shared seed corpus for both targets.
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	add := func(b []byte) { seeds = append(seeds, b) }

	text := []byte("@read1\nACGTACGTACGTACGTACGTTGCA\n+\nIIIIIIIIIIIIIIIIIIIIIIII\n")
	var big []byte
	for i := 0; i < 64; i++ {
		big = append(big, text...)
	}
	for _, level := range []int{0, 1, 6, 9} {
		gz, err := baseline.Compress(big, level)
		if err != nil {
			f.Fatal(err)
		}
		add(gz)
	}
	empty, err := baseline.Compress(nil, 6)
	if err != nil {
		f.Fatal(err)
	}
	add(empty)
	named, err := baseline.CompressNamed(text, 6, "reads.fastq")
	if err != nil {
		f.Fatal(err)
	}
	add(named)
	m1, _ := baseline.Compress(text, 1)
	m2, _ := baseline.Compress(big, 9)
	multi := append(append(append([]byte{}, m1...), empty...), m2...)
	add(multi)
	// Skip-mode seed: large enough output (~44 KiB) that a deep
	// File.ReadAt exercises the tail-only translation-free skip, at the
	// stored-heavy level where block starts are padding-ambiguous.
	var wide []byte
	for i := 0; i < 768; i++ {
		wide = append(wide, text...)
	}
	skipSeed, err := baseline.Compress(wide, 0)
	if err != nil {
		f.Fatal(err)
	}
	add(skipSeed)
	// Fast-loop seed: a tiny skewed alphabet compresses to very short
	// literal codes (2-3 bits), the regime where the multi-symbol decode
	// packs two literals per table probe — mutations around this seed
	// stress the packed-pair and budget-trim paths of the fast kernel.
	dense := make([]byte, 48<<10)
	for i := range dense {
		dense[i] = "eetta o"[i*2654435761>>27%7]
	}
	denseSeed, err := baseline.Compress(dense, 9)
	if err != nil {
		f.Fatal(err)
	}
	add(denseSeed)
	// Damaged variants: truncation, a flipped payload byte, a flipped
	// trailer byte, garbage after a valid member.
	add(m2[:len(m2)/2])
	flipped := append([]byte{}, m2...)
	flipped[len(flipped)/2] ^= 0x40
	add(flipped)
	badCRC := append([]byte{}, m1...)
	badCRC[len(badCRC)-6] ^= 0xff
	add(badCRC)
	add(append(append([]byte{}, m1...), []byte("garbage tail")...))
	add([]byte("\x1f\x8b")) // magic only
	add(nil)
	return seeds
}

// fuzzCompare runs one decompressor against the stdlib oracle.
func fuzzCompare(t *testing.T, data []byte, name string, run func([]byte) ([]byte, error)) {
	t.Helper()
	if len(data) > fuzzInputLimit {
		t.Skip("oversized input")
	}
	want, stdErr := stdGunzip(data)
	got, err := run(data)
	if stdErr != nil {
		// The stdlib rejected it; we only require a clean error (no
		// panic, no hang). Our error may legitimately differ.
		return
	}
	if err != nil {
		// The stdlib accepted the input but we rejected it. The one
		// deliberate strictness gap is RFC 1952's reserved FLG bits,
		// which compress/gzip ignores and pugz rejects.
		if errors.Is(err, gzipx.ErrBadFlags) {
			return
		}
		t.Fatalf("%s rejected stdlib-valid input: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s output mismatch: got %d bytes, want %d", name, len(got), len(want))
	}
}

func FuzzDecompress(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzCompare(t, data, "Decompress", func(gz []byte) ([]byte, error) {
			out, _, err := Decompress(gz, Options{
				Threads:         3,
				MinChunk:        4 << 10,
				VerifyChecksums: true,
			})
			return out, err
		})
		fuzzSkipMode(t, data)
	})
}

// fuzzSkipMode drives the tail-only skip path on stdlib-valid inputs:
// a deep ReadAt (translation-free skip to ~80% of the output) and a
// Size() measuring pass must agree with the oracle, and no input may
// panic the skip machinery.
func fuzzSkipMode(t *testing.T, data []byte) {
	if len(data) > fuzzInputLimit {
		return
	}
	want, err := stdGunzip(data)
	if err != nil || len(want) < 4096 {
		// Outputs below one read have nothing to skip: the deep-seek
		// path degenerates to the plain cursor already fuzzed above.
		return
	}
	f, err := NewFileBytes(data, FileOptions{
		Threads:              2,
		BatchCompressedBytes: 16 << 10,
		MinChunk:             4 << 10,
	})
	if err != nil {
		return // framing the stdlib tolerates but pugz rejects (flags)
	}
	defer f.Close()
	off := int64(len(want)) * 4 / 5
	p := make([]byte, min(4096, len(want)-int(off)))
	if _, err := f.ReadAt(p, off); err != nil && err != io.EOF {
		if errors.Is(err, gzipx.ErrBadFlags) {
			return // a later member uses reserved flags pugz rejects
		}
		t.Fatalf("skip-mode ReadAt(%d): %v", off, err)
	}
	if !bytes.Equal(p, want[off:off+int64(len(p))]) {
		t.Fatalf("skip-mode ReadAt(%d): mismatch vs stdlib", off)
	}
	size, err := f.Size()
	if err != nil {
		if errors.Is(err, gzipx.ErrBadFlags) {
			return
		}
		t.Fatalf("skip-mode Size: %v", err)
	}
	if size != int64(len(want)) {
		t.Fatalf("skip-mode Size = %d, want %d", size, len(want))
	}
}

func FuzzNewReader(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzCompare(t, data, "NewReader", func(gz []byte) ([]byte, error) {
			// Odd source read size exercises segment-boundary handling.
			r, err := NewReader(iotest(gz), StreamOptions{
				Threads:              4,
				BatchCompressedBytes: 64 << 10,
				MinChunk:             4 << 10,
				VerifyChecksums:      true,
				ReadSize:             1031,
			})
			if err != nil {
				return nil, err
			}
			defer r.Close()
			return io.ReadAll(r)
		})
	})
}

// iotest wraps a slice in a plain io.Reader (bytes.NewReader would
// also satisfy io.ByteReader and friends; this keeps the source
// minimal, like a net.Conn).
func iotest(b []byte) io.Reader { return &onlyReader{bytes.NewReader(b)} }

type onlyReader struct{ r io.Reader }

func (o *onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

// FuzzIndexBuildParity: the parallel index build against the
// sequential oracle. A fuzzed plaintext, repeated (the repeats raise
// its expansion toward the exact run's cap), is compressed at one of
// levels 0/1/6/9 and indexed by NewIndexFromReader on fuzzed threads,
// batch, chunk floor and spacing; the marshalled blob must equal
// gzindex.Build's over the same payload, or both must fail. Small
// batches and chunk floors cut the stream into many spans, reaching a
// run's take-overs, gaps and false starts.
func FuzzIndexBuildParity(f *testing.F) {
	text := genFastq(200, 31)
	f.Add(text, uint8(2), uint8(7), uint8(3), uint8(1), uint8(1), uint16(16))
	f.Add(text[:20000], uint8(0), uint8(3), uint8(3), uint8(1), uint8(0), uint16(4))
	f.Add(text[:3000], uint8(1), uint8(15), uint8(1), uint8(1), uint8(2), uint16(64))
	f.Add([]byte("ACGT"), uint8(3), uint8(255), uint8(2), uint8(1), uint8(0), uint16(1))
	f.Add([]byte{}, uint8(2), uint8(0), uint8(3), uint8(0), uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, plain []byte, level, reps, threads, batchKiB, minKiB uint8, spacingKiB uint16) {
		if len(plain) > fuzzInputLimit {
			t.Skip("oversized input")
		}
		plain = bytes.Repeat(plain, 1+int(reps%16))
		gz, err := baseline.Compress(plain, []int{0, 1, 6, 9}[level%4])
		if err != nil {
			t.Fatal(err)
		}
		spacing := 1 + int64(spacingKiB%256)<<10
		var want []byte
		m, err := gzipx.ParseHeader(gz)
		if err != nil {
			t.Fatal(err)
		}
		inner, wantErr := gzindex.Build(gz[m.HeaderLen:], spacing)
		if wantErr == nil {
			if want, err = inner.Marshal(); err != nil {
				t.Fatal(err)
			}
		}
		ix, gotErr := NewIndexFromReader(bytes.NewReader(gz), spacing, StreamOptions{
			Threads:              1 + int(threads%4),
			BatchCompressedBytes: int(batchKiB) << 10,
			MinChunk:             (1 + int(minKiB%16)) << 10,
		})
		switch {
		case (gotErr != nil) != (wantErr != nil):
			t.Fatalf("parallel build error %v, sequential %v", gotErr, wantErr)
		case gotErr != nil:
			return
		}
		got, err := ix.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("parallel build's blob (%d bytes) differs from the sequential build's (%d bytes)", len(got), len(want))
		}
	})
}
