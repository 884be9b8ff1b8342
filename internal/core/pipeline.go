package core

import (
	"io"
	"sync/atomic"
	"time"

	"repro/internal/srcbuf"
)

// PipelineOptions configures a streaming Pipeline.
type PipelineOptions struct {
	// Threads is the number of spans in flight (and, clamped to
	// GOMAXPROCS, of goroutines decoding at once, the resolver
	// included).
	Threads int
	// BatchCompressedBytes bounds the compressed bytes in flight: the
	// spans being synced, decoded and resolved, each
	// BatchCompressedBytes/Threads long (default 4 MiB x Threads, min
	// 64 KiB).
	BatchCompressedBytes int
	// MinChunk, Confirmations, ValidByte, Sequential: as in Options.
	MinChunk      int
	Confirmations int
	ValidByte     func(byte) bool
	Sequential    bool
	// ReadSize is the capacity of a single source read issued by the
	// reader goroutine (default srcbuf.DefaultReadSize).
	ReadSize int
	// Prefetch is how many source reads the reader goroutine may run
	// ahead of decoding — the back-pressure bound (default
	// srcbuf.DefaultPrefetch).
	Prefetch int
	// MaxWindowBytes caps how far the compressed window may grow while
	// retrying a chunk that would not decode (a block straddling the
	// window end).
	// Without a cap, a corrupt stream would buffer the entire remaining
	// source before erroring. Default max(64 MiB, 4 x batch); always at
	// least one batch plus slack.
	MaxWindowBytes int
}

// Pipeline decompresses raw DEFLATE streams pulled from an io.Reader
// with bounded memory: a reader goroutine fills the compressed window
// (srcbuf.Window), the chunk scheduler keeps at most Threads spans of
// it in flight — workers syncing and decoding later spans with
// symbolic contexts while the resolver finishes earlier ones — and
// chunks are emitted in order as soon as each is resolved. Peak memory
// is O(batch + window), independent of the source size.
//
// A Pipeline processes one or more consecutive DEFLATE streams (gzip
// members) from the same source: callers interleave their own framing
// reads on Window() with RunMember calls. It is not safe for concurrent
// use.
type Pipeline struct {
	win       *srcbuf.Window
	inner     Options
	maxWindow int
	n         int     // spans in flight
	span      int64   // compressed bytes per span
	out       *[]byte // a resident pipeline's output (NewPipelineBytes); nil when streaming

	batches  atomic.Int64
	outBytes atomic.Int64
	work     workCounter
}

// BatchCount returns the number of chunks emitted so far, across all
// RunMember calls. Safe from any goroutine.
func (p *Pipeline) BatchCount() int { return int(p.batches.Load()) }

// Work returns the sync offsets tried, bytes decoded and resolver
// take-overs so far, across all RunMember calls. Safe from any
// goroutine.
func (p *Pipeline) Work() Work { return p.work.load() }

// OutBytes returns the decompressed bytes decoded so far across all
// RunMember calls — including skip-mode output that was measured but
// never translated or emitted (File.Size relies on this). Safe from any
// goroutine.
func (p *Pipeline) OutBytes() int64 { return p.outBytes.Load() }

// NewPipeline returns a Pipeline reading compressed bytes from r.
func NewPipeline(r io.Reader, o PipelineOptions) *Pipeline {
	return newPipeline(srcbuf.New(r, o.ReadSize, o.Prefetch), o)
}

// NewPipelineBytes returns a resident Pipeline: its window is data
// itself (srcbuf.NewResident), and every member it runs appends its
// output to *out in place, so one output spans members (see
// run.reserve for how it grows). Each member's extent, its declared
// Extent or else the rest of data, is cut into min(Threads,
// extent/MinChunk) spans, all of them in flight, instead of batch-sized
// ones.
func NewPipelineBytes(data []byte, out *[]byte, o PipelineOptions) *Pipeline {
	p := newPipeline(srcbuf.NewResident(data), o)
	p.out = out
	return p
}

func newPipeline(win *srcbuf.Window, o PipelineOptions) *Pipeline {
	n := o.Threads
	if n < 1 {
		n = 1
	}
	batchBytes := o.BatchCompressedBytes
	if batchBytes <= 0 {
		batchBytes = 4 << 20 * n
	}
	if batchBytes < 64<<10 {
		batchBytes = 64 << 10
	}
	inner := Options{
		Threads:       n,
		MinChunk:      o.MinChunk,
		Confirmations: o.Confirmations,
		ValidByte:     o.ValidByte,
		Sequential:    o.Sequential,
	}
	if inner.MinChunk <= 0 {
		inner.MinChunk = defaultMinChunk
	}
	maxWindow := o.MaxWindowBytes
	if maxWindow <= 0 {
		maxWindow = 64 << 20
		if m := 4 * batchBytes; m > maxWindow {
			maxWindow = m
		}
	}
	if floor := batchBytes + batchSlack; maxWindow < floor {
		maxWindow = floor
	}
	spans := max(min(n, batchBytes/inner.MinChunk), 1)
	return &Pipeline{
		win:       win,
		inner:     inner,
		maxWindow: maxWindow,
		n:         spans,
		span:      int64(batchBytes / spans),
	}
}

// Window exposes the pipeline's compressed window so callers can parse
// stream framing (gzip headers and trailers) from the same source
// without buffering it twice.
func (p *Pipeline) Window() *srcbuf.Window { return p.win }

// Close stops the source reader goroutine and unblocks any RunMember
// waiting on source data. Safe to call from any goroutine.
func (p *Pipeline) Close() { p.win.Close() }

// Checkpoint is a decoder restart point emitted as a side-channel of
// normal parallel decode (see MemberRun): Bit is the absolute source
// bit offset of a block boundary in the pipeline's coordinates, Out the
// member-relative decompressed offset at that boundary, and Window the
// 32 KiB of output preceding Out (zero-padded at the member start). The
// receiver owns Window.
type Checkpoint struct {
	Bit    int64
	Out    int64
	Window []byte
}

// MemberRun configures one RunMemberOpts call. The zero value (plus an
// Emit callback) decodes a member from the window's current position,
// exactly like RunMember.
type MemberRun struct {
	// Emit receives consecutive decompressed chunks, in order, each as
	// soon as it is resolved. Output below SkipTo is never delivered.
	// Required on a streaming Pipeline. Each slice is the callee's: it
	// may retain it, or, once done with it, hand it back to the
	// scheduler's buffer pool with RecycleOutput — the Reader does,
	// after copying a chunk out; every other caller retains (or drops)
	// what it is given. On a resident Pipeline (NewPipelineBytes) Emit
	// is optional and each slice is a view into the output instead.
	Emit func([]byte) error

	// StartBit is the absolute source bit to start decoding at; <= 0
	// selects the window's current base. It must be a true block
	// boundary (a member start, a previous run's end bit, or an index
	// checkpoint).
	StartBit int64
	// Context is the resolved 32 KiB window preceding StartBit. nil
	// means StartBit is the member's true start (zero context,
	// back-references before it rejected).
	Context []byte
	// OutBase is the member-relative decompressed offset at StartBit
	// (non-zero only when resuming mid-member from a checkpoint).
	OutBase int64
	// Extent is the member's declared compressed payload length, in
	// bytes from StartBit (a BGZF header's BSIZE less framing), 0 when
	// unknown. No span is planned past it; it never cuts the decode,
	// which always runs to the member's final block.
	Extent int64

	// SkipTo is a member-relative output offset: bytes below it are not
	// emitted, and chunks that lie entirely below it skip pass-2
	// translation — the parallel two-pass skip (workers still locate
	// block boundaries, decode symbolically, and propagate context
	// windows, so everything from SkipTo onward is exact). A span
	// clearly below it is measured through the tail sinks, O(32 KiB) per
	// chunk; a measured chunk that reaches SkipTo after all is decoded
	// again, exactly and in full, from its resolved start.
	SkipTo int64

	// CheckpointSpacing, with OnCheckpoint set, emits restart points at
	// least this many output bytes apart: every block boundary is a
	// candidate in chunks decoded in full (translated, or skipped but
	// symbolic), chunk starts in tail-only ones.
	// OnCheckpoint runs on the pipeline's goroutine; an error aborts the
	// run.
	CheckpointSpacing int64
	OnCheckpoint      func(Checkpoint) error

	// ExactCheckpoints makes skipped (translation-free) chunks emit
	// the same spacing-exact block-boundary checkpoints a translated
	// chunk would — the zran contract index builds rely on. Spans are
	// scheduled as in any run: workers sync them and decode them in
	// full with a symbolic context, and each due block boundary's window
	// is resolved from the symbols before it. A worker's span may
	// expand to at most exactExpansionCap times its compressed bytes (2
	// bytes a symbol); one that would expand further fails and is taken
	// over. Chunks the resolver decodes itself (the member start,
	// take-overs, gaps) are tail-only decodes that snapshot each due
	// window as they pass it, O(32 KiB) whatever their expansion.
	// Without workers (Threads or GOMAXPROCS 1) the run is zran's one
	// sequential exact pass. Without ExactCheckpoints, skipped chunks
	// decoded tail-only contribute chunk-start restart points only
	// (cheap, and all the auto-index needs).
	ExactCheckpoints bool
}

// MemberResult reports a finished RunMemberOpts call.
type MemberResult struct {
	// EndBit is the absolute source bit offset just past the member's
	// final block; the window is left positioned at the byte containing
	// it, so the caller can resume framing at the next byte boundary.
	EndBit int64
	// Out is the member-relative decompressed offset at the member's
	// end (the member's total decompressed size when OutBase was 0).
	Out int64
	// Metrics reports the run (its Chunks only on a resident Pipeline).
	Metrics *Metrics
}

// RunMember decodes one raw DEFLATE stream starting at the window's
// current position, invoking emit with consecutive decompressed chunks
// (each a slice the callee may retain). It returns
// the absolute source bit offset just past the stream's final block and
// leaves the window positioned at the byte containing that bit, so the
// caller can resume framing at the following byte boundary.
func (p *Pipeline) RunMember(emit func([]byte) error) (int64, error) {
	res, err := p.RunMemberOpts(MemberRun{Emit: emit})
	return res.EndBit, err
}

// RunMemberOpts decodes one raw DEFLATE stream with the full option
// surface: mid-member resume from a checkpoint, translation-free skip
// up to a target offset, and checkpoint emission as a side-channel of
// the decode. It returns only after every task it started has exited.
func (p *Pipeline) RunMemberOpts(mr MemberRun) (MemberResult, error) {
	t0 := time.Now()
	work0 := p.work.load()
	startBit := mr.StartBit
	if startBit <= 0 {
		startBit = p.win.Base() * 8
	}
	checkpointing := mr.OnCheckpoint != nil && mr.CheckpointSpacing > 0
	exact := checkpointing && mr.ExactCheckpoints
	span, n, extEnd := p.span, p.n, int64(0)
	if mr.Extent > 0 {
		extEnd = startBit/8 + mr.Extent
	}
	if lim := p.win.Base() + int64(p.win.Len()); p.out != nil {
		if extEnd == 0 || extEnd > lim {
			extEnd = lim
		}
		n = max(min(p.inner.Threads, int(extEnd-startBit/8)/p.inner.MinChunk), 1)
		span = (extEnd - startBit/8) / int64(n)
	}
	r := &run{
		o: p.inner, src: &source{win: p.win, maxWindow: p.maxWindow},
		span: span, n: n, extEnd: extEnd,
		emit: mr.Emit, skipTo: mr.SkipTo, exact: exact,
		emitted: &p.batches, outCounter: &p.outBytes, work: &p.work,
	}
	if p.out != nil {
		r.resident, r.whole = true, *p.out
	}
	if checkpointing {
		r.onCP, r.cpSpacing, r.nextCP = mr.OnCheckpoint, mr.CheckpointSpacing, mr.OutBase
	}
	r.start(startBit, mr.Context, mr.OutBase)
	err := r.resolve()
	if p.out != nil {
		*p.out = r.whole
	}
	if err != nil {
		return MemberResult{}, err
	}
	return MemberResult{EndBit: r.bit, Out: r.out, Metrics: &Metrics{
		Chunks: r.chunks, SyncWall: r.syncWall, Pass1Wall: r.pass1Wall, Pass2SeqWall: r.pass2Seq, Pass2ParWall: r.pass2Par,
		TotalWall: time.Since(t0), Work: p.work.load().minus(work0), PayloadEndBit: r.bit,
	}}, nil
}
