package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/srcbuf"
	"repro/internal/tracked"
)

// PipelineOptions configures a streaming Pipeline.
type PipelineOptions struct {
	// Threads is the number of parallel chunks per batch.
	Threads int
	// BatchCompressedBytes is the compressed size of one batch
	// (default 4 MiB x Threads, min 64 KiB).
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
	// retrying a failed batch (a block straddling the window end).
	// Without a cap, a corrupt stream would buffer the entire remaining
	// source before erroring. Default max(64 MiB, 4 x batch); always at
	// least one batch plus slack.
	MaxWindowBytes int
}

// batchSlack is how far past the nominal batch end the window is
// pre-filled, so the block straddling the batch end (the batch stops at
// the first block starting past it) is usually resident on the first
// decode attempt.
const batchSlack = 256 << 10

// Pipeline decompresses raw DEFLATE streams pulled from an io.Reader
// with bounded memory: a reader goroutine fills the compressed window
// (srcbuf.Window), each batch is decoded by Threads workers with
// symbolic contexts, and batches are resolved and emitted in order.
// Peak memory is O(batch x threads + window), independent of the
// source size.
//
// A Pipeline processes one or more consecutive DEFLATE streams (gzip
// members) from the same source: callers interleave their own framing
// reads on Window() with RunMember calls. It is not safe for concurrent
// use.
type Pipeline struct {
	win        *srcbuf.Window
	inner      Options
	batchBytes int
	maxWindow  int

	batches  atomic.Int64
	outBytes atomic.Int64
}

// BatchCount returns the number of batches emitted so far, across all
// RunMember calls. Safe from any goroutine.
func (p *Pipeline) BatchCount() int { return int(p.batches.Load()) }

// OutBytes returns the decompressed bytes decoded so far across all
// RunMember calls — including skip-mode output that was measured but
// never translated or emitted (File.Size relies on this). Safe from any
// goroutine.
func (p *Pipeline) OutBytes() int64 { return p.outBytes.Load() }

// NewPipeline returns a Pipeline reading compressed bytes from r.
func NewPipeline(r io.Reader, o PipelineOptions) *Pipeline {
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
	return &Pipeline{
		win:        srcbuf.New(r, o.ReadSize, o.Prefetch),
		inner:      inner,
		batchBytes: batchBytes,
		maxWindow:  maxWindow,
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
	// Emit receives consecutive decompressed batches (each a freshly
	// allocated slice the callee may retain). Output below SkipTo is
	// never delivered. Required.
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

	// SkipTo is a member-relative output offset: bytes below it are not
	// emitted, and batches that lie entirely below it skip pass-2
	// translation — the parallel two-pass skip (workers still locate
	// block boundaries, decode symbolically, and propagate context
	// windows, so everything from SkipTo onward is exact). A batch
	// clearly below it is measured through the tail sinks, O(32 KiB) per
	// chunk; a measured batch that reaches SkipTo after all is decoded
	// again in full.
	SkipTo int64

	// CheckpointSpacing, with OnCheckpoint set, emits restart points at
	// least this many output bytes apart: every block boundary is a
	// candidate in translated batches, chunk starts in skipped ones.
	// OnCheckpoint runs on the pipeline's goroutine; an error aborts the
	// run.
	CheckpointSpacing int64
	OnCheckpoint      func(Checkpoint) error

	// ExactCheckpoints makes skipped (translation-free) batches emit
	// the same spacing-exact block-boundary checkpoints a translated
	// batch would — the zran contract index builds rely on. The run is
	// then zran's one sequential pass: every batch is a single exact
	// chunk (no block sync, no symbolic decode) whose tail-only decode
	// snapshots each selected window as it passes it; Threads still
	// sizes the batch. Without it, skipped batches contribute
	// chunk-start restart points only (cheap, and all the auto-index
	// needs).
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
}

// RunMember decodes one raw DEFLATE stream starting at the window's
// current position, invoking emit with consecutive decompressed batches
// (each a freshly allocated slice the callee may retain). It returns
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
// the decode.
func (p *Pipeline) RunMemberOpts(run MemberRun) (MemberResult, error) {
	ctx := tracked.GetWindow() // zeroed: the member's true start
	if run.Context != nil {
		copy(ctx, run.Context)
	}
	defer tracked.PutWindow(ctx)
	startBit := run.StartBit
	if startBit <= 0 {
		startBit = p.win.Base() * 8
	}
	memberOut := run.OutBase
	checkpointing := run.OnCheckpoint != nil && run.CheckpointSpacing > 0
	exact := checkpointing && run.ExactCheckpoints
	o := p.inner
	if exact {
		o.Threads = 1
	}
	nextCpAt := run.OutBase // first candidate boundary checkpoints immediately
	firstBit := startBit
	for {
		// Measure (tail sinks, no output) a batch that clearly lies below
		// the skip target: against DEFLATE's ~1032x worst-case expansion
		// before any of this member has decoded (which still always
		// selects measuring passes and index builds, whose skip target is
		// effectively infinite), and against twice the member's observed
		// expansion after. Exact checkpoints of a skipped batch come only
		// from the tail sink's capture walk, so an exact run measures
		// every skipped batch.
		target := run.SkipTo - memberOut // > 0 while skipping
		var so segOpts
		if target > 0 {
			est := int64(p.batchBytes) * 1032
			if consumed := (startBit - firstBit) / 8; consumed > 0 && memberOut > run.OutBase {
				ratio := (memberOut - run.OutBase + consumed - 1) / consumed
				est = int64(p.batchBytes) * (ratio + 1) * 2
			}
			so.measure = target > est || exact
			if exact {
				so.from, so.every = nextCpAt-memberOut, run.CheckpointSpacing
			}
		}
		seg, err := p.decodeNext(startBit, ctx, o, so)
		if err == nil && so.measure && seg.outLen > target {
			// The batch reaches the target after all, and its tail sinks
			// kept too little to translate: decode it again in full. Only
			// the one batch straddling the target pays this.
			seg.release()
			so = segOpts{}
			seg, err = p.decodeNext(startBit, ctx, o, so)
		}
		if err != nil {
			return MemberResult{}, err
		}
		// Translate only a batch that reaches the target; one decoded in
		// full below it (the estimate was unsure) is measured all the same.
		if seg.outLen > target {
			err = seg.translate(o.Sequential)
		}
		winBase := p.win.Base()
		if err == nil && checkpointing {
			err = emitCheckpoints(run.OnCheckpoint, run.CheckpointSpacing, &nextCpAt,
				seg, so.every > 0, memberOut, winBase)
		}
		copy(ctx, seg.window)
		seg.release()
		if err == nil && seg.out != nil {
			err = run.Emit(seg.out[max(target, 0):])
		}
		if err != nil {
			return MemberResult{}, err
		}
		p.batches.Add(1)
		p.outBytes.Add(seg.outLen)
		memberOut += seg.outLen
		endAbs := winBase*8 + seg.endBit
		p.win.DiscardTo(endAbs / 8)
		startBit = endAbs
		if seg.final {
			return MemberResult{EndBit: endAbs, Out: memberOut}, nil
		}
	}
}

// emitCheckpoints is the one place a decoded segment becomes restart
// points. Its candidates are every block boundary of a translated
// segment, the capture walk's snapshots of a measured exact one
// (captured), and otherwise the chunk starts, each a confirmed block
// boundary whose resolved window pass 2a left in c.ctx. Those at or past
// *nextAt are emitted, advancing it by spacing each time. memberOut is
// the member-relative offset of the segment's first output byte, winBase
// the source byte offset of the payload window the segment's bit offsets
// are relative to.
func emitCheckpoints(fn func(Checkpoint) error, spacing int64, nextAt *int64,
	seg *segment, captured bool, memberOut, winBase int64) error {
	due := func(segRel int64) bool { return memberOut+segRel >= *nextAt }
	emit := func(bit, segRel int64, win []byte) error {
		out := memberOut + segRel
		*nextAt = out + spacing
		return fn(Checkpoint{Bit: winBase*8 + bit, Out: out, Window: win})
	}
	switch {
	case seg.out != nil:
		ctx := seg.chunks[0].ctx
		for i, c := range seg.chunks {
			for j, s := range c.spans {
				at := c.out + s.OutStart
				if !due(at) {
					continue
				}
				win := make([]byte, tracked.WindowSize)
				if at >= tracked.WindowSize {
					copy(win, seg.out[at-tracked.WindowSize:at])
				} else {
					copy(win, ctx[at:])
					copy(win[tracked.WindowSize-at:], seg.out[:at])
				}
				// A stored block's byte-alignment padding makes a chunk's
				// candidate start bit ambiguous (continuity verified the
				// decodes equivalent). A sequential decode, the reference
				// an index is compared against, reports the predecessor's
				// stop bit, so pin it for byte-identical indexes.
				bit := s.Event.StartBit
				if j == 0 && i > 0 {
					bit = seg.chunks[i-1].endBit
				}
				if err := emit(bit, at, win); err != nil {
					return err
				}
			}
		}
	case captured:
		for _, cp := range seg.chunks[0].caps {
			if due(cp.Out) {
				if err := emit(cp.Bit, cp.Out, cp.Window); err != nil {
					return err
				}
			}
		}
	default:
		for _, c := range seg.chunks {
			if due(c.out) {
				if err := emit(c.startBit, c.out, bytes.Clone(c.ctx)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// decodeNext decodes the batch beginning at absolute bit startBit,
// growing the window and retrying when a decode runs off the buffered
// data before the source is exhausted. A decode of a window prefix that
// succeeds is identical to the decode over the full stream (DEFLATE is
// prefix-deterministic), so retry is only ever needed on error. Each
// batch is one segment of the shared chunk-decode engine.
func (p *Pipeline) decodeNext(startBit int64, ctx []byte, o Options, so segOpts) (*segment, error) {
	need := p.batchBytes + batchSlack
	for {
		if err := p.win.Fill(need); errors.Is(err, srcbuf.ErrClosed) {
			return nil, err
		}
		// Decode whatever is resident even if the source just failed:
		// an io.Reader may deliver its final bytes alongside its error.
		rel := startBit - p.win.Base()*8
		seg, err := decodeSegment(p.win.Bytes(), rel, int64(p.batchBytes), ctx, o, so)
		if err == nil {
			return seg, nil
		}
		if p.win.EOF() {
			if srcErr := p.win.Err(); srcErr != nil {
				return nil, srcErr
			}
			return nil, err
		}
		// The failure may be an artifact of decoding a truncated window
		// (a block straddling the window end): buffer more and retry.
		// Doubling keeps pathological retries O(log n); the cap keeps a
		// genuinely corrupt stream from buffering the whole source.
		cur := p.win.Len()
		if cur >= p.maxWindow {
			return nil, fmt.Errorf("core: batch at bit %d undecodable within %d-byte window (corrupt stream?): %w",
				startBit, cur, err)
		}
		need = 2 * cur
		if need > p.maxWindow {
			need = p.maxWindow
		}
	}
}
