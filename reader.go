package pugz

import (
	"bytes"
	"errors"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/gzipx"
	"repro/internal/srcbuf"
)

// Reader streams parallel-decompressed gzip content from an arbitrary
// io.Reader with bounded memory — the "further engineering efforts"
// lifting of the paper's whole-file-in-memory limitation (Section
// VIII), for both directions: neither the compressed input nor the
// decompressed output is ever materialized in full. A reader goroutine
// fills a bounded compressed window from the source; the chunk
// scheduler keeps at most Threads spans of it in flight, workers
// syncing and decoding later spans with symbolic contexts while an
// in-order resolver stitches, translates and emits each chunk to Read
// (with back-pressure) as soon as it is resolved. Peak memory is
// O(batch + its expansion), independent of the stream size.
//
// Reader implements io.ReadCloser; the byte stream is identical to
// gunzip's output across all members of a multi-member file.
type Reader struct {
	w memberWalk // owns the pipeline

	batches chan []byte
	errc    chan error
	cancel  chan struct{}

	cur     []byte // unread part of the current chunk
	curBuf  []byte // the whole current chunk, recycled once read
	done    bool
	readErr error

	closeOnce sync.Once
	closed    atomic.Bool
	members   atomic.Int64
}

// cursorState is the package-internal configuration File uses when it
// opens a Reader as its forward cursor: a mid-member resume point, a
// translation-free skip bound, and a checkpoint side-channel feeding
// the File's auto-index. The zero value is a plain Reader.
type cursorState struct {
	// resume, when non-nil, starts the first member mid-stream at a
	// known block boundary instead of parsing a gzip header.
	resume *resumePoint
	// skipTo is a stream-relative decompressed offset: output below it
	// is decoded without pass-2 translation and never emitted.
	skipTo int64
	// spacing/onCheckpoint: emit first-member restart points (pipeline
	// source coordinates) at least spacing output bytes apart.
	// onCheckpoint runs on the Reader's worker goroutine.
	spacing      int64
	onCheckpoint func(core.Checkpoint)
}

// resumePoint pins a Reader's start to a checkpoint: the source handed
// to newCursorReader must begin at the byte containing the boundary.
type resumePoint struct {
	bit    int64  // bit offset of the block boundary within the source
	window []byte // resolved 32 KiB preceding it (not mutated)
	out    int64  // first-member decompressed offset at the boundary
}

// StreamOptions configures a Reader.
type StreamOptions struct {
	// Threads is the number of spans in flight; at most
	// min(Threads, GOMAXPROCS) goroutines decode at once.
	Threads int
	// BatchCompressedBytes bounds the compressed bytes in flight: at
	// most Threads spans of BatchCompressedBytes/Threads each are being
	// synced, decoded or resolved at once (default 4 MiB x Threads).
	BatchCompressedBytes int
	// MinChunk: minimum compressed bytes per chunk.
	MinChunk int
	// VerifyChecksums verifies each member's CRC-32 and ISIZE as the
	// stream completes.
	VerifyChecksums bool
	// ReadSize is the capacity of a single read issued against the
	// source (default 512 KiB). Lower it to tighten the memory bound
	// for small batch sizes.
	ReadSize int
	// Prefetch is how many source reads may be buffered ahead of
	// decoding (default 2) — the source-side back-pressure bound.
	Prefetch int
	// MaxWindowBytes caps compressed-window growth while the pipeline
	// retries a chunk that would not decode (a corrupt stream, or a
	// block straddling the window end). Default max(64 MiB, 4 x batch).
	MaxWindowBytes int
}

// ReaderStats reports how a streaming run went. Snapshot via
// Reader.Stats; values are final once Read has returned io.EOF.
type ReaderStats struct {
	// Members is the number of gzip members completed.
	Members int
	// Batches is the number of decompressed chunks emitted (each at
	// most one span's output).
	Batches int
	// OutBytes is the total decompressed size so far.
	OutBytes int64
	// MaxBufferedCompressed is the high-water mark of compressed bytes
	// resident in the source window — the evidence that the compressed
	// stream was never slurped.
	MaxBufferedCompressed int64
}

// NewReader returns a streaming parallel decompressor over an
// arbitrary gzip source: a file, a pipe, a socket, or an in-memory
// slice via bytes.NewReader (see NewReaderBytes). The first member
// header is read (and validated) before NewReader returns, like
// compress/gzip's NewReader. Callers should Close the Reader to
// release the pipeline if they stop reading early.
func NewReader(src io.Reader, o StreamOptions) (*Reader, error) {
	return newCursorReader(src, o, cursorState{})
}

// newCursorReader is NewReader plus the cursor-only surface (resume,
// skip, checkpoint side-channel). A resumed Reader starts mid-member,
// so no gzip header is parsed at its source's start.
func newCursorReader(src io.Reader, o StreamOptions, cs cursorState) (*Reader, error) {
	p := core.NewPipeline(src, core.PipelineOptions{
		Threads:              o.Threads,
		BatchCompressedBytes: o.BatchCompressedBytes,
		MinChunk:             o.MinChunk,
		ReadSize:             o.ReadSize,
		Prefetch:             o.Prefetch,
		MaxWindowBytes:       o.MaxWindowBytes,
	})
	r := &Reader{
		batches: make(chan []byte, 2),
		errc:    make(chan error, 1),
		cancel:  make(chan struct{}),
	}
	r.w = memberWalk{
		p: p, verify: o.VerifyChecksums, cs: cs, emit: r.hand,
		onMember: func(*core.Metrics) { r.members.Add(1) },
	}
	var extent int64
	if cs.resume == nil { // a resumed cursor starts mid-member
		e, more, err := r.w.header()
		if !more {
			p.Close()
			if err == nil {
				err = gzipx.ErrTruncated // a zero-byte source
			}
			return nil, err
		}
		extent = e
	}
	go r.run(extent)
	return r, nil
}

// NewReaderBytes is NewReader over an in-memory gzip file.
func NewReaderBytes(gz []byte, o StreamOptions) (*Reader, error) {
	return NewReader(bytes.NewReader(gz), o)
}

var errStreamCancelled = errors.New("pugz: stream cancelled")

// ErrReaderClosed is returned by Reader.Read once Close has run
// without the stream having reached a terminal state first: the
// consumer tore the Reader down mid-stream, so what it read so far is
// a truncated prefix, not a complete stream (a complete stream keeps
// reporting io.EOF even after Close). It matches errors.Is against
// os.ErrClosed.
var ErrReaderClosed error = readerClosedError{}

type readerClosedError struct{}

func (readerClosedError) Error() string { return "pugz: read on closed reader" }

// Is makes errors.Is(err, os.ErrClosed) succeed, mirroring what a
// closed os.File reports.
func (readerClosedError) Is(target error) bool { return target == os.ErrClosed }

// run walks the members on the Reader's worker goroutine, from the
// first, whose header declared extent.
func (r *Reader) run(extent int64) {
	defer close(r.batches)
	defer r.w.p.Window().Recycle()
	if err := r.w.walk(extent); err != nil {
		r.fail(err)
	}
}

// hand passes a chunk to the consumer, which owns it from here and
// recycles it once Read has copied it out.
func (r *Reader) hand(b []byte) error {
	select {
	case r.batches <- b:
		return nil
	case <-r.cancel:
		return errStreamCancelled
	}
}

// fail records a terminal error for Read to surface, swallowing the
// sentinels that only mean "the consumer closed us first" — Read
// reports those as ErrReaderClosed via the closed flag, never as a
// clean io.EOF.
func (r *Reader) fail(err error) {
	if errors.Is(err, errStreamCancelled) || errors.Is(err, srcbuf.ErrClosed) {
		return
	}
	r.errc <- err
}

// Stats returns a snapshot of the run's progress counters (sourced
// from the pipeline, which owns them). Values are final once Read has
// returned io.EOF or an error.
func (r *Reader) Stats() ReaderStats {
	return ReaderStats{
		Members:               int(r.members.Load()),
		Batches:               r.w.p.BatchCount(),
		OutBytes:              r.w.p.OutBytes(),
		MaxBufferedCompressed: r.w.p.Window().MaxBuffered(),
	}
}

// Read implements io.Reader. Once Close has been called before the
// stream reached EOF (or a decode error), Read reports ErrReaderClosed
// rather than a clean end of stream — a truncated-by-Close stream must
// not be mistaken for a complete one. A Reader that already returned
// io.EOF keeps returning io.EOF after Close.
func (r *Reader) Read(p []byte) (int, error) {
	if r.readErr != nil {
		return 0, r.readErr
	}
	if r.closed.Load() {
		r.readErr = ErrReaderClosed
		return 0, r.readErr
	}
	for len(r.cur) == 0 {
		if r.done {
			r.readErr = io.EOF
			return 0, io.EOF
		}
		b, ok := <-r.batches
		if !ok {
			// Worker finished: a pending error, a cancellation by Close,
			// or clean EOF.
			select {
			case err := <-r.errc:
				r.readErr = err
				return 0, err
			default:
			}
			if r.closed.Load() {
				r.readErr = ErrReaderClosed
				return 0, r.readErr
			}
			r.done = true
			r.readErr = io.EOF
			return 0, io.EOF
		}
		r.cur, r.curBuf = b, b
	}
	n := copy(p, r.cur)
	r.cur = r.cur[n:]
	if len(r.cur) == 0 {
		core.RecycleOutput(r.curBuf)
		r.curBuf = nil
	}
	return n, nil
}

// Close stops the pipeline and its source-reader goroutine. It is safe
// to call multiple times and after EOF (idempotent). Close does not
// close the underlying source reader. A Read after an early Close
// returns ErrReaderClosed; a Reader that had already delivered its
// whole stream keeps returning io.EOF.
func (r *Reader) Close() error {
	// Signal both blocking points — the chunk hand-off and the source
	// window — before draining, so the worker exits even while waiting
	// on a slow or stalled source. The closed flag is set first so a
	// racing Read that observes the channels shutting down attributes
	// it to Close, not to end of stream.
	r.closeOnce.Do(func() {
		r.closed.Store(true)
		close(r.cancel)
	})
	r.w.p.Close()
	// Drain so the worker can exit if blocked on send.
	for range r.batches {
	}
	return nil
}
