package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bitio"
	"repro/internal/blockfind"
	"repro/internal/flate"
	"repro/internal/tracked"
)

// This file is the single chunk-decode engine behind every decompression
// surface of the package: the whole-file two-pass path
// (DecompressPayload treats the entire payload as one segment) and the
// streaming pipeline (each bounded batch is one segment). A segment is
// planned into chunks at confirmed block starts, pass-1 decoded in
// parallel, trimmed and continuity-checked, then pass-2 resolved against
// the context window that precedes it. Keeping one implementation means
// every speed or correctness fix lands in all paths at once.

// chunk is the per-goroutine working state.
type chunk struct {
	startBit int64
	stopBit  int64 // 0 = decode to the stream's final block
	last     bool

	// pass-1 results
	plain     []byte   // exact chunks (known initial context)
	plainBuf  []byte   // pooled backing of plain (context prefix included)
	sym       []uint16 // symbolic chunks: full output, or trailing window (tailed)
	symRes    *tracked.Result
	plainTail []byte // exact tail-only chunks: resolved final window (pooled)
	tailed    bool   // pass 1 ran tail-only: counts and windows, no output
	outN      int64  // output length (exact in every mode)
	endBit    int64
	final     bool
	firstSpan *flate.BlockSpan // first decoded block (symbolic chunks)
	spans     []flate.BlockSpan

	// Checkpoint windows captured during pass 1 (the one chunk of a
	// cpExact skip segment), with their output offsets and start bits.
	capOuts []int64
	capBits []int64
	capWins [][]byte

	ctx []byte // resolved initial context (pass 2)
	out int64  // offset of this chunk's bytes in the segment output

	m ChunkMetrics
}

func (c *chunk) outLen() int64 { return c.outN }

// releaseScratch returns the chunk's pass-1 buffers to their pools.
// Safe to call twice; called after translation and on every failure
// path (streaming retries a failed segment with a larger window, so
// failure is routine, not exceptional).
func (c *chunk) releaseScratch() {
	if c.symRes != nil {
		c.symRes.Release()
		c.symRes, c.sym, c.firstSpan = nil, nil, nil
	}
	if c.plainBuf != nil {
		putPlainBuf(c.plainBuf)
		c.plainBuf, c.plain = nil, nil
	}
	if c.plainTail != nil {
		tracked.PutWindow(c.plainTail)
		c.plainTail = nil
	}
}

// ErrNoFinalBlock is returned when the stream ends without a final
// block (truncated input).
var ErrNoFinalBlock = errors.New("core: stream has no final block (truncated?)")

// segment is one decoded extent of a DEFLATE stream: the unit shared by
// the whole-file engine (one segment = the whole payload) and the
// streaming pipeline (one segment = one batch).
type segment struct {
	chunks []*chunk
	out    []byte // translated output (nil when translation was skipped)
	outLen int64  // total output bytes, valid even when out is nil
	window []byte // resolved last 32 KiB (context for the next segment)
	endBit int64  // bit offset just past the last decoded block
	final  bool   // the stream's final block was reached

	// spans are the segment's block boundaries in decode order
	// (payload-relative bits, segment-relative output offsets) when
	// segOpts.recordSpans was set; the raw material for checkpoints.
	spans []flate.BlockSpan
	// starts are chunk-start restart points with resolved windows,
	// collected in place of spans-based checkpoints when translation was
	// skipped (segOpts.chunkStarts).
	starts []Checkpoint

	syncWall     time.Duration
	pass1Wall    time.Duration
	pass2SeqWall time.Duration
	pass2ParWall time.Duration
}

// segOpts frames how one decodeSegment call materialises its results;
// it is the per-call companion of the long-lived Options.
type segOpts struct {
	// skipBelow > 0 marks the segment as (potentially) skippable: when
	// the segment's entire output lies below this segment-relative
	// offset, pass-2 translation and the output allocation are elided —
	// the decode still validates structure, measures exact sizes, and
	// propagates context windows. Segments that reach skipBelow
	// translate in full.
	skipBelow int64
	// tailOnly runs pass 1 through the tail-only sinks: each chunk
	// keeps a running count plus its trailing 32 KiB (the only part
	// pass 2 touches for skipped output) instead of materialising the
	// full symbolic buffer — O(WindowSize) memory per chunk. If the
	// segment turns out to reach skipBelow after all, pass 1 is re-run
	// with full buffers; only the one segment straddling a skip target
	// ever pays that.
	tailOnly bool
	// recordSpans collects every block boundary into segment.spans.
	recordSpans bool
	// chunkStarts collects chunk-start checkpoints (with copied context
	// windows) into segment.starts for skipped segments; only starts at
	// or past segment-relative offset startsFrom are kept, so windows
	// the spacing filter would discard are never copied.
	chunkStarts bool
	startsFrom  int64
	// cpExact harvests spacing-exact block-boundary checkpoints (the
	// zran contract) from skipped segments into segment.starts: the
	// segment is planned as one exact tail-only chunk whose pass-1
	// decode snapshots every selected window (TailSink.CaptureEvery).
	// Takes precedence over chunkStarts.
	cpExact   bool
	cpSpacing int64
}

// release returns the segment's pooled resources (the resolved window)
// once the caller is done carrying context forward. The output buffer
// is not pooled: its ownership transfers to the caller.
func (s *segment) release() {
	tracked.PutWindow(s.window)
	s.window = nil
}

// decodeSegment is THE chunk decoder. It decompresses the segment
// starting at startBit (a true block start) whose compressed extent is
// roughly spanBytes, given the resolved 32 KiB context that precedes it
// (nil when startBit is the true start of the stream, where
// back-references before the start are invalid and rejected).
//
// payload may be a window onto a longer stream: a successful decode of
// a prefix is identical to the decode over the full stream, and a
// decode that runs off the end of the window fails (the caller buffers
// more and retries).
func decodeSegment(payload []byte, startBit int64, spanBytes int64, ctx []byte, o Options, so segOpts) (*segment, error) {
	seg := &segment{}

	// --- Sync: locate one confirmed block start per chunk boundary.
	tSync := time.Now()
	planned, err := planSegment(payload, startBit, spanBytes, o)
	if err != nil {
		return nil, err
	}
	seg.syncWall = time.Since(tSync)

	// --- Pass 1 (+ trim + continuity).
	chunks, err := seg.runPasses(payload, planned, ctx, o, so, so.tailOnly)
	if err != nil {
		return nil, err
	}
	if so.tailOnly {
		var total int64
		for _, c := range chunks {
			total += c.outN
		}
		if so.skipBelow <= 0 || total > so.skipBelow {
			// The segment reaches output that must be translated, which
			// tail-only pass 1 cannot feed: decode it again with full
			// buffers. Only the one segment that straddles a skip target
			// pays this; fully skipped segments never re-run.
			for _, c := range chunks {
				c.releaseScratch()
			}
			fresh := make([]*chunk, len(planned))
			for i, c := range planned {
				fresh[i] = &chunk{startBit: c.startBit, stopBit: c.stopBit, last: c.last,
					m: ChunkMetrics{StartBit: c.startBit, Find: c.m.Find}}
			}
			seg.final = false
			if chunks, err = seg.runPasses(payload, fresh, ctx, o, so, false); err != nil {
				return nil, err
			}
		}
	}
	seg.chunks = chunks
	seg.endBit = chunks[len(chunks)-1].endBit

	// --- Pass 2: resolve windows sequentially, translate in parallel.
	// resolveSegment owns scratch release from here on; on failure it
	// leaves releaseScratch to us (idempotent for what it already
	// returned).
	if err := resolveSegment(seg, ctx, o.Sequential, so); err != nil {
		for _, c := range chunks {
			c.releaseScratch()
		}
		return nil, err
	}
	if so.recordSpans && seg.out != nil {
		// Spans feed the spacing-exact checkpoint walk, which only runs
		// over translated segments (skipped ones use seg.starts).
		collectSpans(seg)
	}
	return seg, nil
}

// runPasses runs pass 1 over the planned chunks, trims past the member
// end, and verifies continuity, returning the live chunk list. On any
// failure every chunk's pass-1 scratch is back in the pools: the
// streaming caller retries failed segments with a larger window, so
// the failure path is as hot as the success path.
func (seg *segment) runPasses(payload []byte, chunks []*chunk, ctx []byte, o Options, so segOpts, tailOnly bool) ([]*chunk, error) {
	fail := func(err error) ([]*chunk, error) {
		for _, c := range chunks {
			c.releaseScratch()
		}
		return nil, err
	}

	// --- Pass 1: parallel decompression. The first chunk decodes
	// exactly (its context is known); later chunks decode with symbolic
	// contexts.
	tP1 := time.Now()
	if err := runPass1(payload, chunks, ctx, o.Sequential, tailOnly, so); err != nil {
		return fail(err)
	}
	seg.pass1Wall += time.Since(tP1)

	// Trim chunks past the end of the member: when the input buffer
	// extends beyond one DEFLATE stream (a multi-member gzip file, or
	// trailing data), the chunk that reaches the stream's final block
	// ends the member and later chunks — which synced into whatever
	// follows — are discarded.
	lastPlanned := chunks[len(chunks)-1]
	for i, c := range chunks {
		if c.final {
			for _, dropped := range chunks[i+1:] {
				dropped.releaseScratch()
			}
			chunks = chunks[:i+1]
			seg.final = true
			break
		}
	}
	if !seg.final && lastPlanned.last {
		// The segment was unbounded on the right (planned to run to the
		// stream's final block) yet never reached one: truncated input.
		return fail(ErrNoFinalBlock)
	}
	// Continuity check: every chunk must stop exactly where its
	// successor starts. Stored blocks make the start bit ambiguous
	// (any zero bit inside the byte-alignment padding decodes
	// identically), so on a bit mismatch we verify equivalence by
	// probing one block at the predecessor's true stop position and
	// comparing it against the successor's first decoded block. A real
	// mismatch means a confirmed-but-false block start slipped through
	// the stringent checks; we fail loudly rather than emit corrupt
	// output (callers may retry sequentially).
	for i := 0; i < len(chunks)-1; i++ {
		if chunks[i].endBit == chunks[i+1].startBit {
			continue
		}
		if err := verifyEquivalentStart(payload, chunks[i].endBit, chunks[i+1]); err != nil {
			return fail(fmt.Errorf(
				"core: chunk %d ended at bit %d but chunk %d starts at bit %d: %w",
				i, chunks[i].endBit, i+1, chunks[i+1].startBit, err))
		}
	}
	return chunks, nil
}

// collectSpans flattens the per-chunk block spans into one in-order
// segment span list: output offsets become segment-relative, and the
// first span of each non-first chunk is pinned to its predecessor's
// exact stop bit. That pinning matters for byte-identical indexes: a
// stored block's byte-alignment padding makes the candidate start bit
// ambiguous (continuity already verified the decodes are equivalent),
// and a sequential decode — the reference an index is compared against
// — always reports the predecessor's stop position.
func collectSpans(seg *segment) {
	n := 0
	for _, c := range seg.chunks {
		n += len(c.spans)
	}
	seg.spans = make([]flate.BlockSpan, 0, n)
	for i, c := range seg.chunks {
		for j, s := range c.spans {
			s.OutStart += c.out
			s.OutEnd += c.out
			if j == 0 && i > 0 {
				s.Event.StartBit = seg.chunks[i-1].endBit
			}
			seg.spans = append(seg.spans, s)
		}
	}
}

// planSegment finds the chunk block starts for the segment beginning at
// startBit with compressed extent spanBytes. Interior boundary k
// (0 < k < n) targets byte offset start + k*span/n; the k-th chunk
// begins at the first confirmed block start at or after that target.
// Boundaries that resolve to the same block start, to none, or to one
// at or past the segment end are merged into their predecessor. The
// segment end needs no probe: the last chunk stops at the first block
// starting at or past it (StopBit), which its own decode finds, or —
// when the segment reaches the end of the buffered payload — decodes to
// the stream's final block. A one-chunk plan runs no block sync at all.
func planSegment(payload []byte, startBit int64, spanBytes int64, o Options) ([]*chunk, error) {
	startByte := startBit / 8
	endByte := startByte + spanBytes
	if endByte > int64(len(payload)) {
		endByte = int64(len(payload))
	}
	span := endByte - startByte

	n := o.Threads
	if n < 1 {
		n = 1
	}
	minChunk := o.MinChunk
	if minChunk <= 0 {
		minChunk = defaultMinChunk
	}
	if maxN := int(span) / minChunk; n > maxN {
		n = maxN
		if n < 1 {
			n = 1
		}
	}

	type found struct {
		bit int64
		dur time.Duration
		err error
	}
	// results[0] is fixed at startBit; results[k] is interior boundary
	// k's probe (-1 = no block start inside the segment).
	results := make([]found, n)
	results[0] = found{bit: startBit}
	forEachChunk(o.Sequential, 1, n, func(k int) {
		t := time.Now()
		target := startByte + int64(k)*span/int64(n)
		bit, err := newFinder(o).Next(payload, target*8)
		if errors.Is(err, blockfind.ErrNotFound) || err == nil && bit >= endByte*8 {
			// No block start left inside the segment: the chunk merges
			// into its predecessor.
			bit, err = -1, nil
		}
		results[k] = found{bit: bit, dur: time.Since(t), err: err}
	})
	for k := 1; k < n; k++ {
		if results[k].err != nil {
			return nil, fmt.Errorf("core: chunk %d sync: %w", k, results[k].err)
		}
	}

	var chunks []*chunk
	prev := int64(-1)
	for k := 0; k < n; k++ {
		bit := results[k].bit
		if bit < 0 || bit <= prev {
			continue // merged into predecessor
		}
		c := &chunk{startBit: bit}
		c.m.StartBit = bit
		c.m.Find = results[k].dur
		chunks = append(chunks, c)
		prev = bit
	}
	for i := 0; i < len(chunks)-1; i++ {
		chunks[i].stopBit = chunks[i+1].startBit
	}
	lastChunk := chunks[len(chunks)-1]
	if endByte == int64(len(payload)) {
		lastChunk.last = true
	} else {
		lastChunk.stopBit = endByte * 8
	}
	return chunks, nil
}

func newFinder(o Options) *blockfind.Finder {
	opts := flate.Options{Validate: true}
	if o.ValidByte != nil {
		opts.ValidByte = o.ValidByte
	}
	f := blockfind.NewWithOptions(opts)
	if o.Confirmations > 0 {
		f.Confirmations = o.Confirmations
	}
	return f
}

// forEachChunk runs fn(i) for i in [lo,hi), concurrently unless
// sequential is set.
func forEachChunk(sequential bool, lo, hi int, fn func(int)) {
	if sequential {
		for i := lo; i < hi; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := lo; i < hi; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// runPass1 decompresses all chunks. The first chunk's initial context
// is known — ctx when mid-stream, empty at the true stream start — so
// it decodes exactly into bytes; the rest decode with fully
// undetermined symbolic contexts. In tailOnly mode every chunk keeps
// only its output count and trailing window (skip-mode pass 1), and
// when the segment harvests exact checkpoints the first chunk — then
// the only one — snapshots the checkpoint windows as it decodes.
func runPass1(payload []byte, chunks []*chunk, ctx []byte, sequential, tailOnly bool, so segOpts) error {
	errs := make([]error, len(chunks))
	forEachChunk(sequential, 0, len(chunks), func(i int) {
		c := chunks[i]
		t := time.Now()
		switch {
		case i == 0 && tailOnly:
			errs[i] = c.decodePlainTail(payload, ctx, so)
		case i == 0:
			errs[i] = c.decodePlain(payload, ctx, so.recordSpans)
		default:
			errs[i] = c.decodeTracked(payload, tailOnly)
		}
		c.m.Pass1 = time.Since(t)
		c.m.EndBit = c.endBit
	})
	return errors.Join(errs...)
}

// decodePlain decodes a chunk whose initial context is known exactly:
// nil ctx means the true start of the stream (back-references before
// the start are rejected, as in a normal gunzip); otherwise the sink is
// seeded with the 32 KiB window so mid-stream references resolve to
// real bytes immediately — no symbolic detour, no pass-2 translation.
func (c *chunk) decodePlain(payload []byte, ctx []byte, recordSpans bool) error {
	r, err := bitio.NewReaderAt(payload, c.startBit)
	if err != nil {
		return err
	}
	sink := &flate.ByteSink{Out: getPlainBuf()}
	sink.StopBit = c.stopBit
	if recordSpans {
		sink.RecordBlocks()
	}
	dec := flate.GetDecoder(flate.Options{})
	defer flate.PutDecoder(dec)
	if ctx == nil {
		dec.SetTrackStart(true)
	} else {
		sink.Out = append(sink.Out, ctx...)
		sink.Prefix = len(ctx)
	}
	if c.final, err = dec.DecodeBlocks(r, sink); err != nil {
		putPlainBuf(sink.Out)
		return fmt.Errorf("core: chunk at bit %d: %w", c.startBit, err)
	}
	c.plainBuf = sink.Out
	c.plain = sink.Output()
	if c.plain == nil {
		// Keep the empty-output case classified as a plain chunk:
		// layout and pass 2 distinguish plain from symbolic chunks by
		// plain != nil (an empty first chunk happens when an empty
		// member precedes further members in one buffer).
		c.plain = []byte{}
	}
	c.endBit = sink.EndBit(r)
	c.spans = sink.Blocks
	c.outN = int64(len(c.plain))
	c.m.OutBytes = c.outN
	return nil
}

// decodePlainTail is decodePlain for skip mode: same exact decode (the
// initial context is known), but only the output count and the
// resolved final window are kept — O(WindowSize) memory no matter how
// large the chunk's output is — plus, for exact checkpoints, the
// windows of the spacing walk, snapshotted as the decode passes them.
func (c *chunk) decodePlainTail(payload []byte, ctx []byte, so segOpts) error {
	r, err := bitio.NewReaderAt(payload, c.startBit)
	if err != nil {
		return err
	}
	sink := flate.NewTailSink(ctx)
	defer sink.Release()
	sink.StopBit = c.stopBit
	if so.cpExact {
		sink.CaptureEvery(so.startsFrom, so.cpSpacing)
	}
	dec := flate.GetDecoder(flate.Options{})
	defer flate.PutDecoder(dec)
	if ctx == nil {
		dec.SetTrackStart(true)
	}
	if c.final, err = dec.DecodeBlocks(r, sink); err != nil {
		return fmt.Errorf("core: chunk at bit %d: %w", c.startBit, err)
	}
	c.plainTail = tracked.GetWindow()
	sink.WindowInto(c.plainTail)
	c.tailed = true
	c.capWins = sink.Captured()
	c.capOuts, c.capBits = sink.WalkMarks()
	c.endBit = sink.EndBit(r)
	c.outN = sink.Len()
	c.m.OutBytes = c.outN
	return nil
}

func (c *chunk) decodeTracked(payload []byte, tailOnly bool) error {
	opts := tracked.DecodeOptions{StopBit: c.stopBit, RecordSpans: true}
	var res *tracked.Result
	var err error
	if tailOnly {
		res, err = tracked.DecodeTailFrom(payload, c.startBit, opts)
		c.tailed = true
	} else {
		res, err = tracked.DecodeFrom(payload, c.startBit, opts)
	}
	if err != nil {
		return err
	}
	c.sym = res.Out
	c.symRes = res
	c.endBit = res.EndBit
	c.final = res.Final
	c.spans = res.Spans
	if len(res.Spans) > 0 {
		c.firstSpan = &res.Spans[0]
	}
	c.outN = res.OutLen
	c.m.OutBytes = c.outN
	// In tail mode only the trailing window survives, so this counts
	// symbols still unresolved there (skip-mode metrics are advisory).
	c.m.SymbolsUnresolved = int64(tracked.CountUndetermined(res.Out))
	return nil
}

// verifyEquivalentStart checks that decoding one block at trueBit (the
// predecessor's exact stop position) is indistinguishable from the
// first block the successor chunk decoded from its candidate start:
// same block type, same data bit, same end bit, same output size.
// When all four agree the two decode paths consumed the same token
// stream and the outputs concatenate exactly.
func verifyEquivalentStart(payload []byte, trueBit int64, next *chunk) error {
	if next.firstSpan == nil {
		return errors.New("successor chunk decoded no blocks")
	}
	got := next.firstSpan
	r, err := bitio.NewReaderAt(payload, trueBit)
	if err != nil {
		return err
	}
	var probe probeSink
	dec := flate.NewDecoder(flate.Options{})
	defer flate.PutDecoder(dec)
	if _, err := dec.DecodeBlock(r, &probe); err != nil {
		return fmt.Errorf("probe decode at bit %d: %w", trueBit, err)
	}
	switch {
	case probe.ev.Type != got.Event.Type:
		return fmt.Errorf("block type mismatch: %v vs %v", probe.ev.Type, got.Event.Type)
	case probe.ev.DataBit != got.Event.DataBit:
		return fmt.Errorf("data bit mismatch: %d vs %d", probe.ev.DataBit, got.Event.DataBit)
	case probe.endBit != got.EndBit:
		return fmt.Errorf("end bit mismatch: %d vs %d", probe.endBit, got.EndBit)
	case probe.bytes != got.OutEnd-got.OutStart:
		return fmt.Errorf("block size mismatch: %d vs %d", probe.bytes, got.OutEnd-got.OutStart)
	}
	return nil
}

// probeSink counts one block's output without materialising it.
type probeSink struct {
	ev     flate.BlockEvent
	endBit int64
	bytes  int64
}

func (p *probeSink) BlockStart(ev flate.BlockEvent) error { p.ev = ev; return nil }
func (p *probeSink) Literal(byte) error                   { p.bytes++; return nil }
func (p *probeSink) Match(l, _ int) error                 { p.bytes += int64(l); return nil }
func (p *probeSink) BlockEnd(nextBit int64) error         { p.endBit = nextBit; return nil }

// resolveSegment runs pass 2 over a segment: the cheap sequential sweep
// propagates each chunk's resolved final 32 KiB window to its successor
// (w_{i+1} = resolve(tail(D_i), w_i), Figure 3), then every chunk
// translates its output into its slot of the segment buffer in
// parallel. ctx is the resolved window preceding the segment (nil =
// zeros at the true stream start). On return the pass-1 scratch (plain
// buffers, symbolic buffers, per-chunk windows) is back in the pools.
//
// When so.skipBelow marks the segment as skippable and its entire
// output lies below that bound, the parallel translation (pass 2b) and
// the output allocation are elided: seg.out stays nil and only
// seg.outLen and the propagated windows survive — the two-pass skip
// that makes deep seeks cheap.
func resolveSegment(seg *segment, ctx []byte, sequential bool, so segOpts) error {
	chunks := seg.chunks

	// Layout: prefix sums of chunk output sizes.
	var total int64
	for _, c := range chunks {
		c.out = total
		total += c.outLen()
	}
	seg.outLen = total
	translate := so.skipBelow <= 0 || total > so.skipBelow
	var out []byte
	if translate {
		out = make([]byte, total)
	}

	// Pass 2a (sequential): propagate resolved windows. Every window in
	// the chain is pooled except the caller's own ctx; the final one is
	// handed to the caller as seg.window. Tail-only chunks feed the
	// chain just as well as full ones: a plain tail chunk carries its
	// resolved final window outright, and a symbolic tail chunk's
	// trailing symbols are exactly what ResolveWindowInto consumes.
	releaseChain := func() {
		for _, c := range chunks {
			if len(ctx) == 0 || len(c.ctx) == 0 || &c.ctx[0] != &ctx[0] {
				tracked.PutWindow(c.ctx)
			}
			c.ctx = nil
		}
	}
	tSeq := time.Now()
	w := ctx
	if w == nil {
		w = tracked.GetWindow() // zeroed: the stream's true start
	}
	for _, c := range chunks {
		c.ctx = w
		next := tracked.GetWindow()
		var err error
		switch {
		case c.plainTail != nil:
			copy(next, c.plainTail)
		case c.plain != nil:
			shiftWindow(next, w, c.plain)
		default:
			err = tracked.ResolveWindowInto(next, c.sym, w)
		}
		if err != nil {
			tracked.PutWindow(next)
			releaseChain()
			return err
		}
		w = next
	}
	seg.pass2SeqWall = time.Since(tSeq)

	fail := func(err error) error {
		releaseChain()
		for _, c := range chunks {
			c.releaseScratch()
		}
		tracked.PutWindow(w)
		return err
	}

	// Skipped segments harvest restart points while the chain's windows
	// are still alive: spacing-exact block boundaries when the caller
	// needs the zran contract (index builds; the segment's one exact
	// chunk captured them as it decoded), otherwise the free chunk-start
	// checkpoints (each chunk's start bit is a confirmed block boundary
	// and c.ctx the resolved 32 KiB preceding it).
	if !translate {
		switch {
		case so.cpExact:
			c := chunks[0]
			if len(chunks) != 1 || !c.tailed {
				return fail(errors.New("core: internal: exact checkpoints need one tail-decoded chunk"))
			}
			for k, win := range c.capWins {
				seg.starts = append(seg.starts, Checkpoint{Bit: c.capBits[k], Out: c.capOuts[k], Window: win})
			}
		case so.chunkStarts:
			for _, c := range chunks {
				if c.out < so.startsFrom {
					continue
				}
				win := make([]byte, tracked.WindowSize)
				copy(win, c.ctx)
				seg.starts = append(seg.starts, Checkpoint{Bit: c.startBit, Out: c.out, Window: win})
			}
		}
	}

	// Pass 2b (parallel): translate every chunk into place.
	if translate {
		tPar := time.Now()
		errs := make([]error, len(chunks))
		forEachChunk(sequential, 0, len(chunks), func(i int) {
			c := chunks[i]
			t := time.Now()
			switch {
			case c.tailed:
				// decodeSegment re-runs pass 1 in full before translating
				// a tail segment; reaching here is an engine bug.
				errs[i] = errors.New("core: internal: translating a tail-only chunk")
			case c.plain != nil:
				copy(out[c.out:], c.plain)
			default:
				dst := out[c.out : c.out+int64(len(c.sym))]
				if _, err := tracked.Resolve(c.sym, c.ctx, dst); err != nil {
					errs[i] = err
				}
			}
			c.m.Pass2 = time.Since(t)
		})
		seg.pass2ParWall = time.Since(tPar)
		if err := errors.Join(errs...); err != nil {
			return fail(err)
		}
	}
	releaseChain()
	for _, c := range chunks {
		c.releaseScratch()
	}
	seg.out = out
	seg.window = w
	return nil
}

// shiftWindow fills dst with the 32 KiB window that follows producing
// tail after window prev: the last WindowSize bytes of prev ++ tail.
func shiftWindow(dst, prev, tail []byte) {
	if len(tail) >= tracked.WindowSize {
		copy(dst, tail[len(tail)-tracked.WindowSize:])
		return
	}
	copy(dst, prev[len(tail):])
	copy(dst[tracked.WindowSize-len(tail):], tail)
}
