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
// parallel, trimmed and continuity-checked, and its context windows
// chained from the one that precedes it (pass 2a); translation (pass
// 2b) is the caller's choice. Keeping one implementation means every
// speed or correctness fix lands in all paths at once.

// chunk is the per-goroutine working state.
type chunk struct {
	startBit int64
	stopBit  int64 // 0 = decode to the stream's final block
	last     bool

	// pass-1 results
	plain     []byte   // exact chunks (known initial context)
	plainBuf  []byte   // pooled backing of plain (context prefix included)
	sym       []uint16 // symbolic chunks: full output, or trailing window (measured)
	symRes    *tracked.Result
	plainTail []byte // measured exact chunks: resolved final window (pooled)
	outN      int64  // output length (exact in every mode)
	endBit    int64
	final     bool
	spans     []flate.BlockSpan // decoded blocks (every chunk but a measured exact one)
	caps      []Checkpoint      // capture-walk snapshots, segment-relative Bit and Out

	ctx []byte // resolved initial context (pass 2a, pooled)
	out int64  // offset of this chunk's bytes in the segment output

	m ChunkMetrics
}

// release returns the chunk's pass-1 buffers and its context window to
// their pools. Safe to call twice.
func (c *chunk) release() {
	if c.symRes != nil {
		c.symRes.Release()
		c.symRes, c.sym = nil, nil
	}
	if c.plainBuf != nil {
		putPlainBuf(c.plainBuf)
		c.plainBuf, c.plain = nil, nil
	}
	tracked.PutWindow(c.plainTail)
	tracked.PutWindow(c.ctx)
	c.plainTail, c.ctx = nil, nil
}

// ErrNoFinalBlock is returned when the stream ends without a final
// block (truncated input).
var ErrNoFinalBlock = errors.New("core: stream has no final block (truncated?)")

// segment is one decoded extent of a DEFLATE stream: the unit shared by
// the whole-file engine (one segment = the whole payload) and the
// streaming pipeline (one segment = one batch).
type segment struct {
	chunks []*chunk
	out    []byte // translated output (nil until translate)
	outLen int64  // total output bytes, valid even when out is nil
	window []byte // resolved last 32 KiB (context for the next segment)
	endBit int64  // bit offset just past the last decoded block
	final  bool   // the stream's final block was reached

	syncWall     time.Duration
	pass1Wall    time.Duration
	pass2SeqWall time.Duration
	pass2ParWall time.Duration
}

// segOpts is the sink strategy of one decodeSegment call. The zero
// value emits: every chunk keeps its full pass-1 output, so the segment
// can translate. measure runs pass 1 through the tail sinks instead:
// each chunk keeps its output count and trailing 32 KiB, O(WindowSize)
// memory however large its output, which is all sizes and context
// propagation need, but the segment cannot translate. A measured
// one-chunk segment can also run the tail sink's capture walk (every >
// 0): a window snapshot at the first block boundary at or past
// segment-relative offset from, then every `every` output bytes.
type segOpts struct {
	measure     bool
	from, every int64
}

// release returns every pooled buffer and window the segment holds. The
// output buffer is not pooled: its ownership transfers to the caller.
func (s *segment) release() {
	for _, c := range s.chunks {
		c.release()
	}
	tracked.PutWindow(s.window)
	s.window = nil
}

// decodeSegment is THE chunk decoder. It decompresses the segment
// starting at startBit (a true block start) whose compressed extent is
// roughly spanBytes, given the resolved 32 KiB context that precedes it
// (nil when startBit is the true start of the stream, where
// back-references before the start are invalid and rejected).
//
// It runs block sync, pass 1 and pass 2a: on return every chunk holds
// its pass-1 output (all of it, or its tail when so.measure) and its
// resolved initial context c.ctx, and seg.window is the context for the
// next segment. Pass 2b is translate, for the caller to run or skip;
// release hands the buffers back either way.
//
// payload may be a window onto a longer stream: a successful decode of
// a prefix is identical to the decode over the full stream, and a
// decode that runs off the end of the window fails (the caller buffers
// more and retries).
func decodeSegment(payload []byte, startBit int64, spanBytes int64, ctx []byte, o Options, so segOpts) (*segment, error) {
	// --- Sync: locate one confirmed block start per chunk boundary.
	tSync := time.Now()
	chunks, err := planSegment(payload, startBit, spanBytes, o)
	if err != nil {
		return nil, err
	}
	seg := &segment{chunks: chunks, syncWall: time.Since(tSync)}
	// On any failure every pooled buffer goes back at once: the streaming
	// caller retries failed segments with a larger window, so the failure
	// path is as hot as the success path.
	if err := seg.decode(payload, ctx, o.Sequential, so); err != nil {
		seg.release()
		return nil, err
	}
	return seg, nil
}

// decode runs pass 1, trims past the member end, verifies continuity
// and runs pass 2a over the planned chunks.
func (seg *segment) decode(payload []byte, ctx []byte, sequential bool, so segOpts) error {
	// --- Pass 1: parallel decompression. The first chunk decodes
	// exactly (its context is known); later chunks decode with symbolic
	// contexts.
	tP1 := time.Now()
	if err := runPass1(payload, seg.chunks, ctx, sequential, so); err != nil {
		return err
	}
	seg.pass1Wall = time.Since(tP1)

	// Trim chunks past the end of the member: when the input buffer
	// extends beyond one DEFLATE stream (a multi-member gzip file, or
	// trailing data), the chunk that reaches the stream's final block
	// ends the member and later chunks — which synced into whatever
	// follows — are discarded.
	chunks := seg.chunks
	lastPlanned := chunks[len(chunks)-1]
	for i, c := range chunks {
		if c.final {
			for _, dropped := range chunks[i+1:] {
				dropped.release()
			}
			chunks = chunks[:i+1]
			seg.final = true
			break
		}
	}
	seg.chunks = chunks
	if !seg.final && lastPlanned.last {
		// The segment was unbounded on the right (planned to run to the
		// stream's final block) yet never reached one: truncated input.
		return ErrNoFinalBlock
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
			return fmt.Errorf(
				"core: chunk %d ended at bit %d but chunk %d starts at bit %d: %w",
				i, chunks[i].endBit, i+1, chunks[i+1].startBit, err)
		}
	}
	seg.endBit = chunks[len(chunks)-1].endBit
	for _, c := range chunks {
		c.out = seg.outLen
		seg.outLen += c.outN
	}

	// --- Pass 2a (sequential): propagate resolved windows,
	// w_{i+1} = resolve(tail(D_i), w_i) (Figure 3). Every window in the
	// chain is the segment's own, ctx included (copied, or zeroed at the
	// stream's true start). Measured chunks feed the chain just as well
	// as full ones: a plain tail chunk carries its resolved final window
	// outright, and a symbolic tail chunk's trailing symbols are exactly
	// what ResolveWindowInto consumes.
	tSeq := time.Now()
	seg.window = tracked.GetWindow()
	if ctx != nil {
		copy(seg.window, ctx)
	}
	for _, c := range chunks {
		c.ctx, seg.window = seg.window, tracked.GetWindow()
		switch {
		case c.plainTail != nil:
			copy(seg.window, c.plainTail)
		case c.plain != nil:
			shiftWindow(seg.window, c.ctx, c.plain)
		default:
			if err := tracked.ResolveWindowInto(seg.window, c.sym, c.ctx); err != nil {
				return err
			}
		}
	}
	seg.pass2SeqWall = time.Since(tSeq)
	return nil
}

// translate runs pass 2b: every chunk copies or resolves its pass-1
// output into its slot of a freshly allocated segment buffer, in
// parallel. Only a segment decoded with full sinks can translate.
func (seg *segment) translate(sequential bool) error {
	tPar := time.Now()
	out := make([]byte, seg.outLen)
	errs := make([]error, len(seg.chunks))
	forEachChunk(sequential, 0, len(seg.chunks), func(i int) {
		c := seg.chunks[i]
		t := time.Now()
		switch {
		case c.plain != nil:
			copy(out[c.out:], c.plain)
		case int64(len(c.sym)) != c.outN:
			errs[i] = errors.New("core: internal: translating a measured chunk")
		default:
			_, errs[i] = tracked.Resolve(c.sym, c.ctx, out[c.out:c.out+c.outN])
		}
		c.m.Pass2 = time.Since(t)
	})
	seg.pass2ParWall = time.Since(tPar)
	if err := errors.Join(errs...); err != nil {
		return err
	}
	seg.out = out
	return nil
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
// undetermined symbolic contexts. A measured segment decodes every
// chunk through the tail sinks.
func runPass1(payload []byte, chunks []*chunk, ctx []byte, sequential bool, so segOpts) error {
	errs := make([]error, len(chunks))
	forEachChunk(sequential, 0, len(chunks), func(i int) {
		c := chunks[i]
		t := time.Now()
		switch {
		case i > 0:
			errs[i] = c.decodeTracked(payload, so.measure)
		case so.measure:
			errs[i] = c.decodePlainTail(payload, ctx, so)
		default:
			errs[i] = c.decodePlain(payload, ctx)
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
// Its blocks are recorded: they are a translated segment's checkpoint
// candidates.
func (c *chunk) decodePlain(payload []byte, ctx []byte) error {
	r, err := bitio.NewReaderAt(payload, c.startBit)
	if err != nil {
		return err
	}
	sink := &flate.ByteSink{Out: getPlainBuf()}
	sink.StopBit = c.stopBit
	sink.RecordBlocks()
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
		// pass 2 distinguishes plain from symbolic chunks by
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

// decodePlainTail is decodePlain through the tail sink: same exact
// decode (the initial context is known), but only the output count and
// the resolved final window are kept — O(WindowSize) memory no matter
// how large the chunk's output is — plus, when so.every > 0, the
// windows of the capture walk, snapshotted as the decode passes them.
func (c *chunk) decodePlainTail(payload []byte, ctx []byte, so segOpts) error {
	r, err := bitio.NewReaderAt(payload, c.startBit)
	if err != nil {
		return err
	}
	sink := flate.NewTailSink(ctx)
	defer sink.Release()
	sink.StopBit = c.stopBit
	if so.every > 0 {
		sink.CaptureEvery(so.from, so.every)
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
	outs, bits := sink.WalkMarks()
	for k, win := range sink.Captured() {
		c.caps = append(c.caps, Checkpoint{Bit: bits[k], Out: outs[k], Window: win})
	}
	c.endBit = sink.EndBit(r)
	c.outN = sink.Len()
	c.m.OutBytes = c.outN
	return nil
}

func (c *chunk) decodeTracked(payload []byte, measure bool) error {
	opts := tracked.DecodeOptions{StopBit: c.stopBit, RecordSpans: true}
	var res *tracked.Result
	var err error
	if measure {
		res, err = tracked.DecodeTailFrom(payload, c.startBit, opts)
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
	if len(next.spans) == 0 {
		return errors.New("successor chunk decoded no blocks")
	}
	got := next.spans[0]
	r, err := bitio.NewReaderAt(payload, trueBit)
	if err != nil {
		return err
	}
	var probe probeSink
	dec := flate.GetDecoder(flate.Options{})
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
