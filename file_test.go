package pugz_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync/atomic"
	"testing"

	pugz "repro"
)

// trackingReaderAt counts the bytes read through it, so tests can
// assert that the windowed byte source does NOT load the whole file.
type trackingReaderAt struct {
	data []byte
	read atomic.Int64 // io.ReaderAt allows parallel calls: cursors read ahead concurrently
}

func (t *trackingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(t.data)) {
		return 0, io.EOF
	}
	n := copy(p, t.data[off:])
	t.read.Add(int64(n))
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func fileFixture(t *testing.T) (data, gz []byte) {
	t.Helper()
	return extFastq(12000, 99), extGz(t, 12000, 99, 6)
}

// TestFileReadAtMatchesGunzip is the acceptance property: positional
// reads over an io.ReaderAt return exactly the bytes gunzip would
// produce at those decompressed offsets.
func TestFileReadAtMatchesGunzip(t *testing.T) {
	data, gz := fileFixture(t)
	for _, mode := range []string{"slice", "readerat"} {
		t.Run(mode, func(t *testing.T) {
			var f *pugz.File
			var err error
			if mode == "slice" {
				f, err = pugz.NewFileBytes(gz, pugz.FileOptions{Threads: 4, MinChunk: 16 << 10})
			} else {
				f, err = pugz.NewFile(&trackingReaderAt{data: gz}, int64(len(gz)),
					pugz.FileOptions{Threads: 4, MinChunk: 16 << 10})
			}
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			rng := rand.New(rand.NewSource(7))
			offs := []int64{0, 1, int64(len(data) / 2), int64(len(data)) - 100}
			for i := 0; i < 6; i++ {
				offs = append(offs, rng.Int63n(int64(len(data))))
			}
			for _, off := range offs {
				n := 4096
				if int64(n) > int64(len(data))-off {
					n = int(int64(len(data)) - off)
				}
				p := make([]byte, n)
				got, err := f.ReadAt(p, off)
				if err != nil && err != io.EOF {
					t.Fatalf("ReadAt(%d): %v", off, err)
				}
				if got != n {
					t.Fatalf("ReadAt(%d): %d of %d bytes", off, got, n)
				}
				if !bytes.Equal(p, data[off:off+int64(n)]) {
					t.Fatalf("ReadAt(%d): content mismatch", off)
				}
			}

			// Reads past the end: short with io.EOF.
			p := make([]byte, 128)
			n, err := f.ReadAt(p, int64(len(data))-10)
			if n != 10 || err != io.EOF {
				t.Fatalf("tail read: n=%d err=%v, want 10, io.EOF", n, err)
			}
			if _, err := f.ReadAt(p, int64(len(data))+5); err != io.EOF {
				t.Fatalf("past-end read: err=%v, want io.EOF", err)
			}
		})
	}
}

// TestFileReadAtIndexed checks the gzindex-accelerated path: with a
// checkpoint index attached, a read near the end of a large stream
// must not decode (or even load) the whole file.
func TestFileReadAtIndexed(t *testing.T) {
	data, gz := fileFixture(t)
	ix, err := pugz.BuildIndex(gz, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ix.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	src := &trackingReaderAt{data: gz}
	f, err := pugz.NewFile(src, int64(len(gz)), pugz.FileOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.SetIndex(blob); err != nil {
		t.Fatal(err)
	}

	off := int64(len(data)) - 64<<10
	p := make([]byte, 32<<10)
	if _, err := f.ReadAt(p, off); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(p, data[off:off+int64(len(p))]) {
		t.Fatal("indexed read mismatch")
	}
	// The checkpoint spacing bounds the decode to ~256 KiB of output,
	// roughly its compressed extent of input; reading a large fraction
	// of the compressed file would mean the index was not used.
	if src.read.Load() > int64(len(gz))/2 {
		t.Fatalf("indexed read loaded %d of %d compressed bytes", src.read.Load(), len(gz))
	}

	// Size is known from the index without a decode pass.
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(data)) {
		t.Fatalf("Size = %d, want %d", size, len(data))
	}
}

// TestFileReadSeek exercises the io.ReadSeeker surface.
func TestFileReadSeek(t *testing.T) {
	data, gz := fileFixture(t)
	f, err := pugz.NewFileBytes(gz, pugz.FileOptions{Threads: 2, MinChunk: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if _, err := f.Seek(1000, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 500)
	if _, err := io.ReadFull(f, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, data[1000:1500]) {
		t.Fatal("read after SeekStart mismatch")
	}

	// Relative seek continues from the cursor.
	if _, err := f.Seek(250, io.SeekCurrent); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(f, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, data[1750:2250]) {
		t.Fatal("read after SeekCurrent mismatch")
	}

	// SeekEnd needs the decompressed size (full scan, then cached).
	pos, err := f.Seek(-100, io.SeekEnd)
	if err != nil {
		t.Fatal(err)
	}
	if pos != int64(len(data))-100 {
		t.Fatalf("SeekEnd pos = %d", pos)
	}
	tail, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tail, data[len(data)-100:]) {
		t.Fatal("tail read mismatch")
	}

	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(data)) {
		t.Fatalf("Size = %d, want %d", size, len(data))
	}
}

// TestFileMultiMember checks positional reads across a member
// boundary: the decompressed address space concatenates members,
// exactly like gunzip output.
func TestFileMultiMember(t *testing.T) {
	a, b := extFastq(3000, 1), extFastq(3000, 2)
	gzA, gzB := extGz(t, 3000, 1, 6), extGz(t, 3000, 2, 6)
	gz := append(append([]byte{}, gzA...), gzB...)
	want := append(append([]byte{}, a...), b...)

	f, err := pugz.NewFileBytes(gz, pugz.FileOptions{Threads: 2, MinChunk: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// A read spanning the boundary.
	off := int64(len(a)) - 1000
	p := make([]byte, 2000)
	if _, err := f.ReadAt(p, off); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(p, want[off:off+2000]) {
		t.Fatal("cross-member read mismatch")
	}
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(want)) {
		t.Fatalf("Size = %d, want %d", size, len(want))
	}
}

// TestFileRandomAccessAt checks the compressed-offset access path over
// a true io.ReaderAt: same result as the slice-based RandomAccess, and
// only a bounded prefix of the compressed tail is ever loaded.
func TestFileRandomAccessAt(t *testing.T) {
	gz := extGz(t, 40000, 23, 6)
	from := int64(len(gz) / 3)
	const maxOut = 256 << 10

	wantRes, err := pugz.RandomAccess(gz, from, pugz.RandomAccessOptions{MaxOutput: maxOut})
	if err != nil {
		t.Fatal(err)
	}

	src := &trackingReaderAt{data: gz}
	f, err := pugz.NewFile(src, int64(len(gz)), pugz.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gotRes, err := f.RandomAccessAt(from, pugz.RandomAccessOptions{MaxOutput: maxOut})
	if err != nil {
		t.Fatal(err)
	}

	if gotRes.BlockBit != wantRes.BlockBit {
		t.Fatalf("BlockBit %d vs %d", gotRes.BlockBit, wantRes.BlockBit)
	}
	if !bytes.Equal(gotRes.Text, wantRes.Text) {
		t.Fatal("random-access text mismatch between slice and ReaderAt sources")
	}
	if len(gotRes.Blocks) != len(wantRes.Blocks) || len(gotRes.Records) != len(wantRes.Records) {
		t.Fatalf("structure mismatch: %d/%d blocks, %d/%d records",
			len(gotRes.Blocks), len(wantRes.Blocks), len(gotRes.Records), len(wantRes.Records))
	}
	for i := range gotRes.Blocks {
		if gotRes.Blocks[i] != wantRes.Blocks[i] {
			t.Fatalf("block %d mismatch: %+v vs %+v", i, gotRes.Blocks[i], wantRes.Blocks[i])
		}
	}
	// A bounded read must load a bounded compressed extent: far less
	// than the tail from the sync point to EOF (what "decode to the
	// end" would need), let alone the whole file.
	if tail := int64(len(gz)) - from; src.read.Load() >= tail {
		t.Fatalf("random access loaded %d compressed bytes; naive tail read is %d", src.read.Load(), tail)
	}
}

// TestFileSpanAt: the span geometry tiles the indexed extent, a
// whole-span ReadAt inflates exactly the span and loads exactly its
// compressed bytes, and a File without an index has no spans.
func TestFileSpanAt(t *testing.T) {
	data, gz := fileFixture(t)
	src := &trackingReaderAt{data: gz}
	f, err := pugz.NewFile(src, int64(len(gz)), pugz.FileOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, _, ok := f.SpanAt(0); ok {
		t.Fatal("SpanAt ok with no index attached")
	}
	ix, err := pugz.BuildIndex(gz, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	f.AttachIndex(ix)

	spans := 0
	for off := int64(0); off < int64(len(data)); spans++ {
		start, end, ok := f.SpanAt(off)
		if !ok || start != off || end <= start || end > int64(len(data)) {
			t.Fatalf("SpanAt(%d) = [%d, %d) ok=%v", off, start, end, ok)
		}
		if s2, e2, ok := f.SpanAt(end - 1); !ok || s2 != start || e2 != end {
			t.Fatalf("SpanAt(%d) = [%d, %d), want [%d, %d)", end-1, s2, e2, start, end)
		}
		inflated, loaded := f.InflatedBytes(), src.read.Load()
		p := make([]byte, end-start)
		if n, err := f.ReadAt(p, start); err != nil || n != len(p) {
			t.Fatalf("ReadAt span [%d, %d): n=%d err=%v", start, end, n, err)
		}
		if !bytes.Equal(p, data[start:end]) {
			t.Fatalf("span [%d, %d): content mismatch", start, end)
		}
		if got := f.InflatedBytes() - inflated; got != end-start {
			t.Fatalf("span [%d, %d) inflated %d bytes, want exactly the span", start, end, got)
		}
		// A span of FASTQ at level 6 compresses about 4:1; one load of at
		// most the span's own size is the exact compressed extent, where
		// a guess-and-grow window would have read past it.
		if got := src.read.Load() - loaded; got <= 0 || got > (end-start)/2 {
			t.Fatalf("span [%d, %d) loaded %d compressed bytes", start, end, got)
		}
		off = end
	}
	if spans < 4 {
		t.Fatalf("only %d spans", spans)
	}
	for _, off := range []int64{-1, int64(len(data)), int64(len(data)) + 1} {
		if _, _, ok := f.SpanAt(off); ok {
			t.Fatalf("SpanAt(%d) ok outside the index", off)
		}
	}
}

// TestFileIndexMismatch: a side-car for another file, or one describing
// more file than there is, fails with ErrIndexMismatch — at attach when
// the blob alone shows it, at the read otherwise — never with bytes.
func TestFileIndexMismatch(t *testing.T) {
	data, gz := fileFixture(t)
	other := extGz(t, 12000, 98, 6) // same shape, different content
	ix, err := pugz.BuildIndex(other, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ix.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := pugz.LoadIndex(gz[:len(gz)/2], blob); !errors.Is(err, pugz.ErrIndexMismatch) {
		t.Fatalf("LoadIndex over half the file: err=%v, want ErrIndexMismatch", err)
	}
	short, err := pugz.NewFileBytes(gz[:len(gz)/2], pugz.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := short.SetIndex(blob); !errors.Is(err, pugz.ErrIndexMismatch) {
		t.Fatalf("SetIndex over half the file: err=%v, want ErrIndexMismatch", err)
	}

	f, err := pugz.NewFileBytes(gz, pugz.FileOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.SetIndex(blob); err != nil {
		// Another file's index may still fit this one's length.
		if !errors.Is(err, pugz.ErrIndexMismatch) {
			t.Fatal(err)
		}
		return
	}
	mismatches := 0
	for off := int64(0); ; {
		start, end, ok := f.SpanAt(off)
		if !ok {
			break
		}
		p := make([]byte, end-start)
		n, err := f.ReadAt(p, start)
		switch {
		case errors.Is(err, pugz.ErrIndexMismatch):
			mismatches++
		case err != nil && err != io.EOF:
			t.Fatalf("ReadAt span at %d: %v is not ErrIndexMismatch", start, err)
		case end > int64(len(data)) || !bytes.Equal(p[:n], data[start:start+int64(n)]):
			t.Fatalf("ReadAt span at %d: %d bytes, no error, not this file's bytes", start, n)
		}
		off = end
	}
	if mismatches == 0 {
		t.Fatal("another file's index read this one without a single mismatch")
	}
}
