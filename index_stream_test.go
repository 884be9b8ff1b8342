package pugz

// Tests for the streaming index construction path and the auto-indexing
// parallel-skip File cursor (the PR-4 surfaces). The identity property
// — a stream-built index marshals to the same bytes as the sequential
// zran build — is what lets BuildIndex delegate to the pipeline without
// changing any on-disk side-car.

import (
	"bytes"
	"compress/gzip"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gzindex"
	"repro/internal/gzipx"
)

// slurpIndexBlob is the sequential whole-file reference build (the
// pre-streaming BuildIndex): one recorded decode of the first member's
// payload, marshalled.
func slurpIndexBlob(t *testing.T, gz []byte, spacing int64) []byte {
	t.Helper()
	m, err := gzipx.ParseHeader(gz)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := gzindex.Build(gz[m.HeaderLen:], spacing)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := inner.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestStreamIndexByteIdenticalToSlurp: the acceptance property — the
// streaming parallel build must marshal byte-identically to the
// sequential slurp build, across compression levels, thread counts,
// batch sizes, and multi-member corpora (both index the first member).
func TestStreamIndexByteIdenticalToSlurp(t *testing.T) {
	corpora := map[string][]byte{}
	for _, level := range []int{1, 6, 9} {
		corpora[map[int]string{1: "level1", 6: "level6", 9: "level9"}[level]] = gzCorpus(t, 9000, 711, level)
	}
	second := gzCorpus(t, 2000, 712, 6)
	corpora["multimember"] = append(append([]byte{}, corpora["level6"]...), second...)

	const spacing = 128 << 10
	for name, gz := range corpora {
		t.Run(name, func(t *testing.T) {
			want := slurpIndexBlob(t, gz, spacing)
			for _, cfg := range []StreamOptions{
				{Threads: 1},
				{Threads: 4, BatchCompressedBytes: 96 << 10, MinChunk: 8 << 10},
				{Threads: 3, BatchCompressedBytes: 512 << 10, MinChunk: 16 << 10},
			} {
				ix, err := NewIndexFromReader(bytes.NewReader(gz), spacing, cfg)
				if err != nil {
					t.Fatalf("threads=%d batch=%d: %v", cfg.Threads, cfg.BatchCompressedBytes, err)
				}
				got, err := ix.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("threads=%d batch=%d: stream-built index differs from slurp build (%d vs %d bytes)",
						cfg.Threads, cfg.BatchCompressedBytes, len(got), len(want))
				}
			}
			// And the public wrapper is the same build.
			ix, err := BuildIndex(gz, spacing)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ix.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("BuildIndex wrapper differs from slurp build")
			}
		})
	}
}

// TestNonTextStreamAtWindowFloor: seeded random bytes defeat the text
// checks block sync relies on, so no chunk boundary is ever confirmed.
// With the compressed window capped at its floor, streaming decode and
// the streaming index build must still succeed exactly: a batch ends
// where its exact decode crosses the batch end, with no sync, so the
// window never has to grow.
func TestNonTextStreamAtWindowFloor(t *testing.T) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(29)).Read(data)
	var buf bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&buf, 6)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	gz := buf.Bytes()
	const spacing = 128 << 10
	wantIx := slurpIndexBlob(t, gz, spacing)
	for _, threads := range []int{1, 2} {
		o := StreamOptions{
			Threads:              threads,
			BatchCompressedBytes: 128 << 10,
			MinChunk:             16 << 10,
			ReadSize:             64 << 10,
			MaxWindowBytes:       1, // raised to the floor: one batch plus slack
		}
		r, err := NewReader(bytes.NewReader(gz), o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(r)
		r.Close()
		if err != nil {
			t.Fatalf("threads=%d: NewReader: %v", threads, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("threads=%d: NewReader returned %d bytes, want %d (mismatch)", threads, len(got), len(data))
		}
		ix, err := NewIndexFromReader(bytes.NewReader(gz), spacing, o)
		if err != nil {
			t.Fatalf("threads=%d: NewIndexFromReader: %v", threads, err)
		}
		blob, err := ix.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, wantIx) {
			t.Fatalf("threads=%d: stream-built index differs from slurp build", threads)
		}
	}
}

// TestIndexFromReaderBoundedMemory: index construction over a pipe — the
// stream never exists as one slice on the consumer side — must keep the
// compressed residency bounded by the batch size, not the stream size,
// while still producing a usable index.
func TestIndexFromReaderBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("large stream")
	}
	data := genFastq(60000, 713)
	var buf bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&buf, 6)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	gz := buf.Bytes()

	// Feed the stream through a pipe in small writes so the builder only
	// ever sees an io.Reader trickle, never the slice.
	pr, pw := io.Pipe()
	go func() {
		for o := 0; o < len(gz); o += 64 << 10 {
			end := o + 64<<10
			if end > len(gz) {
				end = len(gz)
			}
			if _, err := pw.Write(gz[o:end]); err != nil {
				return
			}
		}
		pw.Close()
	}()

	const batch = 256 << 10
	ix, st, err := buildIndexStream(pr, 256<<10, StreamOptions{
		Threads:              4,
		BatchCompressedBytes: batch,
		MinChunk:             16 << 10,
		ReadSize:             64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Size() != int64(len(data)) {
		t.Fatalf("index OutSize %d, want %d", ix.Size(), len(data))
	}
	if ix.Checkpoints() < 10 {
		t.Fatalf("only %d checkpoints", ix.Checkpoints())
	}
	const slack = 256<<10 + 3*64<<10 // pipeline batchSlack + prefetch reads
	if st.MaxBufferedCompressed > batch+slack {
		t.Fatalf("peak compressed residency %d exceeds batch-derived bound %d",
			st.MaxBufferedCompressed, batch+slack)
	}
	// The index works against the same bytes: an exact read near the
	// end, inflated straight from a checkpoint.
	p := make([]byte, 16<<10)
	off := int64(len(data)) - 100<<10
	if _, err := ix.ReadAt(gz, p, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, data[off:off+int64(len(p))]) {
		t.Fatal("checkpoint read mismatch")
	}
	t.Logf("stream indexed with peak residency %d, work %+v", st.MaxBufferedCompressed, st.Work)

	// Workers decode the spans: they sync them, and the resolver takes
	// over fewer than it hands out. With one processor there are no
	// workers and the build is one sequential exact pass. The spans are
	// 1 MiB: a 64 KiB one takes the resolver's tail-only walk ~1 ms,
	// and a worker's block sync alone ~5 ms, so at the pipe build's
	// geometry the resolver takes over nearly every span. Under load
	// the resolver can reach a span before any worker gets a processor,
	// so the claim hook holds each claim until the span's worker is
	// past its sync: what is measured is the work, not the race.
	if runtime.GOMAXPROCS(0) > 1 {
		const span = 1 << 20
		restore := core.SetClaimHook(func(synced func() bool) {
			for !synced() {
				time.Sleep(50 * time.Microsecond)
			}
		})
		_, st, err := buildIndexStream(bytes.NewReader(gz), 256<<10, StreamOptions{
			Threads:              4,
			BatchCompressedBytes: 4 * span,
			MinChunk:             16 << 10,
		})
		restore()
		if err != nil {
			t.Fatal(err)
		}
		tasks := int64(len(gz)-1) / span // every span but the first
		if st.Work.BitsTried == 0 {
			t.Fatal("no block sync ran: the build decoded sequentially")
		}
		if st.Work.TakeOvers >= tasks {
			t.Fatalf("resolver took over all %d spans it handed out (work %+v)", tasks, st.Work)
		}
		t.Logf("1 MiB spans: %d handed out, work %+v", tasks, st.Work)
	}
	// One thread: no workers, so the one sequential exact pass.
	_, st, err = buildIndexStream(bytes.NewReader(gz), 256<<10, StreamOptions{Threads: 1, BatchCompressedBytes: batch})
	if err != nil {
		t.Fatal(err)
	}
	if st.Work.BitsTried != 0 || st.Work.TakeOvers != 0 {
		t.Fatalf("Threads 1 build synced or took over spans: work %+v", st.Work)
	}
}

// TestFileBuildIndex: the File-native streaming build must attach the
// index (bounding subsequent reads) and match the whole-file build.
func TestFileBuildIndex(t *testing.T) {
	data := genFastq(15000, 71)
	gz := gzCorpus(t, 15000, 71, 6)
	src := &countingReaderAt{data: gz}
	f, err := NewFile(src, int64(len(gz)), FileOptions{Threads: 2, MinChunk: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ix, err := f.BuildIndex(256 << 10)
	if err != nil {
		t.Fatal(err)
	}
	wantIx, err := BuildIndex(gz, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := ix.Marshal()
	want, _ := wantIx.Marshal()
	if !bytes.Equal(got, want) {
		t.Fatal("File.BuildIndex differs from BuildIndex")
	}
	// Attached: a read near the end must inflate from a checkpoint, not
	// re-decode the file (the build itself read ~everything once).
	afterBuild := src.read
	off := int64(len(data)) - 80<<10
	p := make([]byte, 32<<10)
	if _, err := f.ReadAt(p, off); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(p, data[off:off+int64(len(p))]) {
		t.Fatal("indexed read mismatch")
	}
	if src.read-afterBuild > int64(len(gz))/2 {
		t.Fatalf("indexed read loaded %d more compressed bytes", src.read-afterBuild)
	}
	// Size is known without another pass.
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(data)) {
		t.Fatalf("Size = %d, want %d", size, len(data))
	}
}

// countingReaderAt counts bytes served and tracks the lowest offset
// touched since the last resetMin, like file_test.go's tracking reader
// but usable from the internal test package.
type countingReaderAt struct {
	data   []byte
	mu     sync.Mutex
	read   int64
	minOff int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(c.data)) {
		return 0, io.EOF
	}
	n := copy(p, c.data[off:])
	c.mu.Lock()
	c.read += int64(n)
	if off < c.minOff {
		c.minOff = off
	}
	c.mu.Unlock()
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (c *countingReaderAt) resetMin() {
	c.mu.Lock()
	c.minOff = int64(len(c.data))
	c.mu.Unlock()
}

func (c *countingReaderAt) min() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.minOff
}

// TestFileAutoIndexDeepSeeks: a deep unindexed seek must harvest
// restart points, and a second deep seek must resume from one instead
// of re-decoding the file from the start.
func TestFileAutoIndexDeepSeeks(t *testing.T) {
	data := genFastq(20000, 8)
	gz := gzCorpus(t, 20000, 8, 6)
	src := &countingReaderAt{data: gz}
	f, err := NewFile(src, int64(len(gz)), FileOptions{
		Threads:              3,
		BatchCompressedBytes: 256 << 10,
		MinChunk:             16 << 10,
		AutoIndexSpacing:     128 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	check := func(off int64) {
		t.Helper()
		p := make([]byte, 4096)
		if _, err := f.ReadAt(p, off); err != nil && err != io.EOF {
			t.Fatalf("ReadAt(%d): %v", off, err)
		}
		if !bytes.Equal(p, data[off:off+4096]) {
			t.Fatalf("ReadAt(%d): mismatch", off)
		}
	}

	deep := int64(len(data)) * 8 / 10
	check(deep)
	if f.Checkpoints() == 0 {
		t.Fatal("deep seek retained no checkpoints")
	}

	// A second deep seek, behind the cursor: without the auto-index this
	// re-decodes from the start of the file; with it, the cursor resumes
	// from a retained checkpoint near the target — so the source must
	// never be touched anywhere near its beginning again.
	src.resetMin()
	check(deep - 2<<20)
	if lowest := src.min(); lowest < int64(len(gz))/4 {
		t.Fatalf("second deep seek read from compressed offset %d (of %d): cursor restarted near the file start instead of a checkpoint", lowest, len(gz))
	}
}

// TestFileDeepSeekThenAscending: the pattern the two-pass skip must not
// break — one deep seek, then an ascending scan from there (cursor
// reuse), then a read past EOF.
func TestFileDeepSeekThenAscending(t *testing.T) {
	data := genFastq(15000, 71)
	gz := gzCorpus(t, 15000, 71, 6)
	f, err := NewFileBytes(gz, FileOptions{
		Threads:              2,
		BatchCompressedBytes: 256 << 10,
		MinChunk:             16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	off := int64(len(data)) / 2
	p := make([]byte, 8192)
	for off+int64(len(p)) <= int64(len(data)) {
		if _, err := f.ReadAt(p, off); err != nil && err != io.EOF {
			t.Fatalf("ReadAt(%d): %v", off, err)
		}
		if !bytes.Equal(p, data[off:off+int64(len(p))]) {
			t.Fatalf("ReadAt(%d): mismatch", off)
		}
		off += 64 << 10 // ascending with gaps: cursor discards, no reopen
	}
	if _, err := f.ReadAt(p, int64(len(data))+10); err != io.EOF {
		t.Fatalf("past-end read: err=%v, want io.EOF", err)
	}
	// The size must not have been poisoned by the past-end skip target.
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(data)) {
		t.Fatalf("Size = %d, want %d", size, len(data))
	}
}

// TestFileConcurrentReadAtAutoIndex: concurrent positional reads while
// auto-indexing is in flight — the checkpoint store is written by the
// cursor's worker goroutine while other readers query it. Run under
// -race (the tier-1 gate does).
func TestFileConcurrentReadAtAutoIndex(t *testing.T) {
	data := genFastq(15000, 71)
	gz := gzCorpus(t, 15000, 71, 6)
	f, err := NewFileBytes(gz, FileOptions{
		Threads:              2,
		BatchCompressedBytes: 256 << 10,
		MinChunk:             16 << 10,
		AutoIndexSpacing:     128 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			p := make([]byte, 4096)
			for i := 0; i < 6; i++ {
				off := rng.Int63n(int64(len(data)) - int64(len(p)))
				if _, err := f.ReadAt(p, off); err != nil && err != io.EOF {
					errc <- err
					return
				}
				if !bytes.Equal(p, data[off:off+int64(len(p))]) {
					errc <- io.ErrUnexpectedEOF
					return
				}
			}
		}(int64(g) + 1)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("concurrent ReadAt: %v", err)
	default:
	}
}
