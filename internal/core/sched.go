package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitio"
	"repro/internal/blockfind"
	"repro/internal/flate"
	"repro/internal/srcbuf"
	"repro/internal/tracked"
)

// This file is the one chunk scheduler behind every decompression
// surface of the package: Pipeline.RunMemberOpts, over a sliding window
// or a resident one (NewPipelineBytes, DecompressPayload). The
// compressed stream is cut into nominal spans. Workers sync each span
// to a confirmed block start and run pass 1 on it with a symbolic
// context; one in-order resolver stitches each chunk to its
// predecessor, chains the context windows (pass 2a), translates or
// measures the chunk (pass 2b) and hands it on. So chunk k+1's sync
// and pass 1 overlap chunk k's resolve, translation and consumption.

// ErrNoFinalBlock is returned when the stream ends without a final
// block (truncated input).
var ErrNoFinalBlock = errors.New("core: stream has no final block (truncated?)")

// batchSlack is how far past the last in-flight span the window is
// filled, so the block straddling a span end is usually resident when
// the span is decoded.
const batchSlack = 256 << 10

// chunk is one decoded extent of the stream: a span's pass-1 output,
// or an exact decode by the resolver.
type chunk struct {
	start int64 // absolute bit of its first block (after stitching: the predecessor's end)
	end   int64 // absolute bit just past its last block
	final bool  // it ends with the stream's final block
	base  int64 // absolute bit of the data slice its spans are relative to
	outN  int64 // output length (exact in every mode)

	// Exactly one output form is set: plain (exact, full), tail (exact,
	// measured: the resolved final window) or sym (symbolic pass 1: the
	// full output, or its trailing window when measured).
	plain    []byte
	plainBuf []byte // pooled backing of plain (context prefix included); nil when plain lives in a resident output
	tail     []byte
	sym      *tracked.Result
	measured bool

	spans []flate.BlockSpan // decoded blocks, bits relative to base
	caps  []Checkpoint      // capture-walk snapshots, absolute Bit, chunk-relative Out

	m ChunkMetrics
}

// release returns the chunk's pooled buffers. Safe to call twice.
func (c *chunk) release() {
	if c.sym != nil {
		c.sym.Release()
		c.sym = nil
	}
	if c.plainBuf != nil {
		putOutBuf(c.plainBuf)
		c.plainBuf, c.plain = nil, nil
	}
	tracked.PutWindow(c.tail)
	c.tail = nil
}

// Task states: a queued task waits for a worker; a syncing one is in
// block sync; a decoding one confirmed its start and runs pass 1. The
// resolver abandons a queued or syncing task (and decodes its span
// itself); it waits for a decoding one.
const (
	taskQueued int32 = iota
	taskSyncing
	taskDecoding
	taskAbandoned
)

// task is one span's sync and pass 1.
type task struct {
	lo, hi  int64 // absolute byte span; the chunk stops at the first block at or past hi (0: the final block)
	measure bool  // tail sinks: the span lies wholly below the skip target
	hint    int   // expected output cells
	maxOut  int   // output cells past which pass 1 fails (0: no cap)

	data   []byte // pinned source snapshot
	base   int64  // absolute bit of data[0]
	unpin  func()
	state  atomic.Int32
	stop   atomic.Bool
	done   chan struct{}
	c      *chunk
	err    error
	worker bool // run by a worker goroutine (else inline, Sequential)
}

// source is the compressed bytes a run reads: a pipeline's window, over
// a stream or resident (srcbuf.NewResident). Its methods run on the
// resolver goroutine; workers read pinned snapshots.
type source struct {
	win       *srcbuf.Window
	maxWindow int
}

// view returns the resident bytes and the absolute bit of their first.
func (s *source) view() ([]byte, int64) {
	return s.win.Bytes(), s.win.Base() * 8
}

// pin is view for a reader on another goroutine.
func (s *source) pin() ([]byte, int64, func()) {
	data, base, unpin := s.win.Pin()
	return data, base * 8, unpin
}

// ensure buffers the source up to absolute byte end, or to its end.
// Source errors surface later, from the decode that runs short: a
// reader may deliver its final bytes alongside its error.
func (s *source) ensure(end int64) error {
	if err := s.win.Fill(int(end - s.win.Base())); errors.Is(err, srcbuf.ErrClosed) {
		return err
	}
	return nil
}

// limit returns the absolute byte the resident data ends at and
// whether nothing more will arrive.
func (s *source) limit() (int64, bool) {
	return s.win.Base() + int64(s.win.Len()), s.win.EOF()
}

// grow buffers more of the source after a decode at bit failed with
// cause: a block may straddle the end of the resident bytes. It
// returns cause (or the source's own error) when nothing more can
// arrive, and a window-cap error when the window may not grow further.
func (s *source) grow(bit int64, cause error) error {
	if s.win.EOF() {
		if err := s.win.Err(); err != nil {
			return err
		}
		return cause
	}
	cur := s.win.Len()
	if cur >= s.maxWindow {
		return fmt.Errorf("core: chunk at bit %d undecodable within %d-byte window (corrupt stream?): %w", bit, cur, cause)
	}
	if err := s.win.Fill(min(2*cur, s.maxWindow)); errors.Is(err, srcbuf.ErrClosed) {
		return err
	}
	return nil
}

// run is one member on the scheduler.
type run struct {
	// Plan: spans of span bytes cut from byte first, n in flight, none
	// past extEnd (0: no declared extent).
	o        Options
	src      *source
	span     int64
	n        int
	extEnd   int64
	first    int64
	workers  int // worker goroutines (the resolver decodes too)
	minChunk int64

	// Sinks: a resident run appends its output to whole, the caller's
	// output, which spans members; emit sees each chunk (from
	// member-relative offset skipTo on), as a view into whole or as a
	// buffer of its own, and the counters count emitted chunks and
	// decoded output.
	resident   bool
	whole      []byte
	emit       func([]byte) error
	emitted    *atomic.Int64
	outCounter *atomic.Int64
	skipTo     int64
	exact      bool // every due block boundary a checkpoint (an index build)
	cpSpacing  int64
	onCP       func(Checkpoint) error
	nextCP     int64

	// The member's start, against which its observed expansion is
	// measured.
	startBit int64
	outBase  int64

	// Workers and their tasks, by span index.
	spawned bool
	queue   chan *task
	wg      sync.WaitGroup
	tasks   map[int64]*task
	next    int64 // next span index to dispatch

	// Resolver state: the next chunk starts at bit, at member-relative
	// output offset out, after the resolved 32 KiB window win (no
	// context at all while atStart).
	bit        int64
	out        int64
	win, spare []byte
	atStart    bool

	chunks    []ChunkMetrics // a resident run's: a stream's would grow with it
	syncWall  time.Duration
	pass1Wall time.Duration
	pass2Seq  time.Duration
	pass2Par  time.Duration
	work      *workCounter
}

// initialRatio is the output-per-compressed-byte guess that sizes a
// member's first buffers (text gzip expands ~3-4x); a wrong guess costs
// growth or slack, never bytes.
const initialRatio = 4

// start readies a run whose plan, sinks and options are set for
// decoding from absolute bit startBit, with ctx the known context
// there (nil: the member's true start) at member-relative output
// offset outBase.
func (r *run) start(startBit int64, ctx []byte, outBase int64) {
	r.span, r.n = max(r.span, 1), max(r.n, 1)
	r.first, r.startBit, r.bit = startBit/8, startBit, startBit
	r.outBase, r.out = outBase, outBase
	r.minChunk = int64(r.o.MinChunk)
	if r.minChunk <= 0 {
		r.minChunk = defaultMinChunk
	}
	if !r.o.Sequential { // Sequential: tasks run inline, never taken over
		r.workers = min(r.n, runtime.GOMAXPROCS(0)) - 1
	}
	r.tasks = map[int64]*task{}
	r.win, r.spare = tracked.GetWindow(), tracked.GetWindow()
	r.atStart = ctx == nil
	if ctx != nil {
		copy(r.win, ctx)
	}
}

// spanOf returns the index of the span holding absolute bit b.
func (r *run) spanOf(b int64) int64 {
	if b/8 < r.first {
		return 0
	}
	return (b/8 - r.first) / r.span
}

// bounds returns span k's absolute byte range. hi is 0 for the last
// span of a declared extent, which absorbs the remainder and decodes to
// the final block; ok is false for a span past it.
func (r *run) bounds(k int64) (lo, hi int64, ok bool) {
	lo = r.first + k*r.span
	hi = lo + r.span
	if r.extEnd > 0 {
		if k > 0 && r.extEnd-lo < r.span {
			return 0, 0, false
		}
		if r.extEnd-hi < r.span {
			hi = 0
		}
	}
	return lo, hi, true
}

// estimate returns the expected output of the compressed bytes from
// lo to end (absolute), from the member's expansion so far (or
// initialRatio); bytes past the end of a finished source count for
// nothing.
func (r *run) estimate(lo, end int64) int {
	if lim, eof := r.src.limit(); eof {
		end = min(end, lim)
	}
	compressed := max(end-lo, 0)
	ratio := float64(initialRatio)
	if consumed := r.bit/8 - r.startBit/8; consumed > 0 && r.out > r.outBase {
		ratio = float64(r.out-r.outBase)/float64(consumed)*1.1 + 0.1
	}
	return int(float64(compressed)*ratio) + 4<<10
}

// shouldMeasure reports whether the output up to absolute byte hi
// clearly lies below the skip target: against DEFLATE's ~1032x
// worst-case expansion before any of the member has decoded (which
// still always selects measuring passes and index builds, whose target
// is effectively infinite), and against twice the member's observed
// expansion after. An exact run measures every chunk the resolver
// decodes while skipping; its workers decode in full (see dispatch).
func (r *run) shouldMeasure(hi int64) bool {
	target := r.skipTo - r.out
	if target <= 0 {
		return false
	}
	if r.exact {
		return true
	}
	compressed := hi - r.bit/8
	est := compressed * 1032
	if consumed := r.bit/8 - r.startBit/8; consumed > 0 && r.out > r.outBase {
		ratio := (r.out - r.outBase + consumed - 1) / consumed
		est = compressed * (ratio + 1) * 2
	}
	return target > est
}

// dispatch hands the spans after k, up to the in-flight bound, to the
// workers, buffering their bytes first.
func (r *run) dispatch(k int64) error {
	if r.workers <= 0 && !r.o.Sequential {
		return nil
	}
	if r.next <= k {
		r.next = k + 1
	}
	for ; r.next < k+int64(r.n); r.next++ {
		lo, hi, ok := r.bounds(r.next)
		if !ok {
			return nil
		}
		end := hi
		if end == 0 {
			end = r.extEnd
		}
		if err := r.src.ensure(end + batchSlack); err != nil {
			return err
		}
		if lim, eof := r.src.limit(); eof && lo >= lim {
			return nil
		}
		t := &task{lo: lo, hi: hi, done: make(chan struct{})}
		t.measure = r.shouldMeasure(end)
		t.hint = r.estimate(lo, end)
		if r.exact {
			// Checkpoint windows come from the span's full symbols, whose
			// memory the cap keeps independent of the stream's expansion.
			t.measure = false
			t.maxOut = exactExpansionCap * int(end-lo)
			t.hint = min(t.hint, t.maxOut)
		}
		r.tasks[r.next] = t
		if r.o.Sequential {
			continue // run inline when the resolver reaches it
		}
		t.worker = true
		t.data, t.base, t.unpin = r.src.pin()
		if !r.spawned {
			r.spawned = true
			r.queue = make(chan *task, r.n) // one slot per span in flight: dispatch never blocks
			for range r.workers {
				r.wg.Add(1)
				go func() {
					defer r.wg.Done()
					for t := range r.queue {
						r.runTask(t)
					}
				}()
			}
		}
		r.queue <- t
	}
	return nil
}

// runTask is a worker's job: sync the span, then pass 1 unless the
// resolver abandoned the task meanwhile.
func (r *run) runTask(t *task) {
	defer close(t.done)
	defer t.unpin()
	if !t.state.CompareAndSwap(taskQueued, taskSyncing) {
		return
	}
	t.c, t.err = r.pass1(t)
}

var errAbandoned = errors.New("core: task abandoned")

// exactExpansionCap bounds an exact run's pass 1: a span that expands
// past this many output cells per compressed byte is left to the
// resolver's tail-only decode.
const exactExpansionCap = 16

var errExpansionCap = errors.New("core: span expands past the exact run's cap")

// pass1 syncs task t's span to its first confirmed block start and
// decodes from there with a symbolic context, up to the first block at
// or past the span end.
func (r *run) pass1(t *task) (*chunk, error) {
	t0 := time.Now()
	f := r.finder()
	f.Stop = &t.stop
	limit := int64(len(t.data)) * 8
	if t.hi > 0 {
		limit = min(limit, t.hi*8-t.base)
	}
	// An inline task reads the window as the resolver left it, which
	// may already have discarded the bytes before the resolver's bit.
	bit, err := f.NextBefore(t.data, max(t.lo*8-t.base, 0), limit)
	r.work.add(Work{BitsTried: f.Stats.BitsTried})
	r.putFinder(f)
	if err != nil {
		return nil, err
	}
	find := time.Since(t0)
	if !t.state.CompareAndSwap(taskSyncing, taskDecoding) {
		return nil, errAbandoned
	}
	t1 := time.Now()
	opts := tracked.DecodeOptions{RecordSpans: true, SizeHint: t.hint, MaxOutput: t.maxOut, Cancel: &t.stop}
	if t.hi > 0 {
		opts.StopBit = t.hi*8 - t.base
	}
	var res *tracked.Result
	if t.measure {
		res, err = tracked.DecodeTailFrom(t.data, bit, opts)
	} else {
		res, err = tracked.DecodeFrom(t.data, bit, opts)
	}
	if err != nil {
		return nil, err
	}
	if t.maxOut > 0 && res.OutLen >= int64(t.maxOut) {
		r.work.add(Work{Decoded: res.OutLen})
		res.Release()
		return nil, errExpansionCap
	}
	c := &chunk{
		start: t.base + bit, end: t.base + res.EndBit, final: res.Final, base: t.base,
		outN: res.OutLen, sym: res, measured: t.measure, spans: res.Spans,
	}
	r.work.add(Work{Decoded: c.outN})
	c.m = ChunkMetrics{
		StartBit: c.start, EndBit: c.end, OutBytes: c.outN,
		Find: find, Pass1: time.Since(t1),
	}
	if r.resident { // the count is a pass over the output: whole-file runs only
		c.m.SymbolsUnresolved = int64(tracked.CountUndetermined(res.Out))
	}
	return c, nil
}

// claim returns task t's chunk for the resolver, or nil when the
// resolver must decode the span itself: the task's sync had not
// confirmed (it is abandoned), or its sync or pass 1 failed. A
// Sequential run's tasks run here, inline and to completion. The
// chunk stays the task's until the caller deletes the task.
func (r *run) claim(t *task) *chunk {
	if !t.worker {
		if t.state.CompareAndSwap(taskQueued, taskSyncing) {
			t.data, t.base = r.src.view()
			t.c, t.err = r.pass1(t)
			close(t.done)
		}
	} else {
		if hook := claimHook.Load(); hook != nil {
			(*hook)(t.synced)
		}
		if t.state.CompareAndSwap(taskQueued, taskAbandoned) ||
			t.state.CompareAndSwap(taskSyncing, taskAbandoned) {
			t.stop.Store(true)
			r.work.add(Work{TakeOvers: 1})
			return nil
		}
	}
	r.await(t)
	if t.err != nil {
		r.work.add(Work{TakeOvers: 1})
	}
	return t.c
}

// claimHook, when set, runs before claim may abandon a worker's task.
// Nil in production; see SetClaimHook.
var claimHook atomic.Pointer[func(synced func() bool)]

// SetClaimHook makes claim call f, which must not be nil, before it
// may abandon a worker's task, and returns a func that restores the
// previous hook. synced reports whether the task's worker is past its
// block sync: the task left the queued and syncing states, or ended. A
// hook that waits for it orders every claim behind its worker's sync,
// for tests that assert what workers contribute; set it only while no
// decode runs.
func SetClaimHook(f func(synced func() bool)) (restore func()) {
	prev := claimHook.Swap(&f)
	return func() { claimHook.Store(prev) }
}

// synced reports whether task t's worker is past its block sync.
func (t *task) synced() bool {
	select {
	case <-t.done:
		return true
	default:
	}
	s := t.state.Load()
	return s != taskQueued && s != taskSyncing
}

// await waits for task t to finish. Rather than idle meanwhile, the
// resolver runs queued tasks of later spans itself, as one more worker:
// it decodes nothing else until t is done.
func (r *run) await(t *task) {
	for {
		select {
		case <-t.done:
			return
		default:
		}
		select {
		case <-t.done:
			return
		case next, ok := <-r.queue:
			if !ok {
				<-t.done
				return
			}
			r.runTask(next)
		}
	}
}

// drop abandons task t, releasing a chunk it already holds once its
// worker is done with it.
func (r *run) drop(t *task) {
	t.stop.Store(true)
	if t.state.CompareAndSwap(taskQueued, taskAbandoned) || t.state.CompareAndSwap(taskSyncing, taskAbandoned) {
		return
	}
	<-t.done
	if t.c != nil {
		t.c.release()
	}
}

// shutdown stops every task still in flight and returns once every
// worker has exited.
func (r *run) shutdown() {
	for _, t := range r.tasks {
		t.stop.Store(true)
	}
	if r.spawned {
		close(r.queue)
		r.wg.Wait()
	}
	for k, t := range r.tasks {
		r.drop(t)
		delete(r.tasks, k)
	}
	tracked.PutWindow(r.win)
	tracked.PutWindow(r.spare)
	r.win, r.spare = nil, nil
}

// resolve runs the member to its final block. Every chunk it hands on
// starts exactly where its predecessor ended.
//
// Workers speculate nothing until the run has outgrown its first
// MinChunk compressed bytes (or its first span, if shorter): the
// resolver decodes those exactly first, so a small member — one of many
// concatenated, or a BGZF member that declares no length — ends before
// any worker syncs into its successors. (A Sequential run's tasks run
// only when the resolver reaches them, so it speculates nothing anyway.)
func (r *run) resolve() error {
	defer r.shutdown()
	first := r.workers > 0 // nothing to hold back without workers
	for {
		k := r.spanOf(r.bit)
		for j, t := range r.tasks {
			if j < k { // covered by a predecessor that ran past its span
				r.drop(t)
				delete(r.tasks, j)
			}
		}
		if first {
			first = false
			end := r.first + min(r.minChunk, r.span)
			c, err := r.exactChunk(end*8, end, r.shouldMeasure(end))
			if err == nil {
				err = r.finish(c)
			}
			if err != nil || c.final {
				return err
			}
			continue
		}
		if err := r.dispatch(k); err != nil {
			return err
		}
		c, err := r.nextChunk(k)
		if err != nil {
			return err
		}
		if err := r.finish(c); err != nil {
			return err
		}
		if c.final {
			return nil
		}
	}
}

// nextChunk returns the chunk that starts at r.bit inside span k: the
// span's pass-1 chunk when it stitches to the predecessor, else an
// exact decode by the resolver — up to the task's start when a sync
// skipped a block start (the gap), or over the whole span (a take-over).
func (r *run) nextChunk(k int64) (*chunk, error) {
	_, hi, ok := r.bounds(k)
	if !ok {
		hi = 0 // past the extent's last span: decode to the final block
	}
	stop, end := hi*8, hi
	if hi == 0 {
		end = max(r.extEnd, r.bit/8+r.span)
	}
	if t := r.tasks[k]; t != nil {
		c := r.claim(t)
		switch {
		case c == nil:
			delete(r.tasks, k)
		case c.start == r.bit:
			delete(r.tasks, k)
			return c, nil
		case c.start > r.bit:
			stop = c.start // the gap: decode exactly up to the task's start
		case r.equivalentStart(c) == nil:
			delete(r.tasks, k)
			c.start = r.bit
			return c, nil
		default: // a false start: decode the span exactly
			delete(r.tasks, k)
			c.release()
		}
	}
	return r.exactChunk(stop, end, r.shouldMeasure(end))
}

// equivalentStart checks that chunk c, which started from a candidate
// bit other than r.bit, read the same first block as a decode at r.bit:
// stored blocks make a block's start bit ambiguous (any zero bit inside
// the byte-alignment padding decodes identically).
func (r *run) equivalentStart(c *chunk) error {
	data, base := r.src.view()
	return verifyEquivalentStart(data, base, r.bit, c)
}

// exactChunk decodes from r.bit with the resolved window up to the
// first block at or past stop (0: the final block), buffering more of
// the source and retrying when a block straddles the resident end. end
// is the absolute byte the chunk is expected to reach.
func (r *run) exactChunk(stop, end int64, measure bool) (*chunk, error) {
	if err := r.src.ensure(end + batchSlack); err != nil {
		return nil, err
	}
	for {
		data, base := r.src.view()
		t := time.Now()
		c, err := r.decodeExact(data, base, stop, measure, r.estimate(r.bit/8, end))
		if err == nil {
			c.m.Pass1 = time.Since(t)
			r.work.add(Work{Decoded: c.outN})
			return c, nil
		}
		if err := r.src.grow(r.bit, err); err != nil {
			return nil, err
		}
	}
}

// decodeExact is one attempt of exactChunk over data (absolute bit
// base at data[0]).
func (r *run) decodeExact(data []byte, base, stop int64, measure bool, hint int) (*chunk, error) {
	rd, err := bitio.NewReaderAt(data, r.bit-base)
	if err != nil {
		return nil, err
	}
	dec := flate.GetDecoder(flate.Options{})
	defer flate.PutDecoder(dec)
	dec.SetTrackStart(r.atStart)
	c := &chunk{start: r.bit, base: base, measured: measure}
	var ctl *flate.Control
	var v flate.Visitor
	var sink *flate.ByteSink
	var tail *flate.TailSink
	if measure {
		var ctx []byte
		if !r.atStart {
			ctx = r.win
		}
		tail = flate.NewTailSink(ctx)
		defer tail.Release()
		if r.exact && r.cpSpacing > 0 {
			tail.CaptureEvery(r.nextCP-r.out, r.cpSpacing)
		}
		ctl, v = &tail.Control, tail
	} else {
		sink = &flate.ByteSink{}
		switch {
		case r.resident:
			if len(r.whole) > 0 || cap(r.whole) == 0 {
				r.reserve(hint) // an empty presized output is the caller's own estimate
			}
			sink.Out, sink.Prefix = r.whole, len(r.whole)
		case r.atStart:
			sink.Out = getOutBuf(hint)
		default:
			sink.Out = append(getOutBuf(hint+tracked.WindowSize), r.win...)
			sink.Prefix = tracked.WindowSize
		}
		sink.RecordBlocks()
		ctl, v = &sink.Control, sink
	}
	if stop > 0 {
		ctl.StopBit = stop - base
	}
	c.final, err = dec.DecodeBlocks(rd, v)
	if err != nil {
		if sink != nil && !r.resident {
			putOutBuf(sink.Out)
		}
		return nil, fmt.Errorf("core: chunk at bit %d: %w", r.bit, err)
	}
	c.end = base + ctl.EndBit(rd)
	if measure {
		c.tail = tracked.GetWindow()
		tail.WindowInto(c.tail)
		outs, bits := tail.WalkMarks()
		for i, w := range tail.Captured() {
			c.caps = append(c.caps, Checkpoint{Bit: base + bits[i], Out: outs[i], Window: w})
		}
		c.outN = tail.Len()
	} else {
		c.plain = sink.Output()
		if r.resident {
			r.whole = sink.Out
		} else {
			c.plainBuf = sink.Out
		}
		c.spans = sink.Blocks
		c.outN = int64(len(c.plain))
	}
	c.m = ChunkMetrics{StartBit: c.start, EndBit: c.end, OutBytes: c.outN}
	return c, nil
}

// finish hands chunk c on: it re-decodes a measured chunk that reaches
// the skip target after all, chains the window past it (pass 2a),
// translates it if it reaches the target (pass 2b), emits checkpoints
// and output, and advances the resolver.
func (r *run) finish(c *chunk) error {
	defer c.release()
	target := r.skipTo - r.out // > 0 while skipping
	if c.measured && c.outN > target {
		// The chunk reaches the target after all, and its tail sinks kept
		// too little to translate: decode it again in full, exactly.
		stop := c.end
		if c.final {
			stop = 0
		}
		c.release()
		nc, err := r.exactChunk(stop, c.end/8, false)
		if err != nil {
			return err
		}
		*c = *nc
	}
	tSeq := time.Now()
	prev := r.win
	next := r.spare
	var out []byte // the chunk's bytes, when translated or exact
	switch {
	case c.plain != nil:
		out = c.plain
		shiftWindow(next, prev, out)
	case c.tail != nil:
		copy(next, c.tail)
	case c.sym != nil && !c.measured && c.outN > target:
		t := time.Now()
		if r.resident {
			n := len(r.whole)
			r.reserve(int(c.outN))
			r.whole = r.whole[:n+int(c.outN)]
			out = r.whole[n:]
		} else {
			c.plainBuf = getOutBuf(int(c.outN))[:c.outN]
			out = c.plainBuf
		}
		if _, err := tracked.Resolve(c.sym.Out, prev, out); err != nil {
			return err
		}
		c.m.Pass2 = time.Since(t)
		r.pass2Par += c.m.Pass2
		shiftWindow(next, prev, out)
	default:
		if err := tracked.ResolveWindowInto(next, c.sym.Out, prev); err != nil {
			return err
		}
	}
	r.pass2Seq += time.Since(tSeq) - c.m.Pass2
	if r.onCP != nil {
		if err := r.checkpoints(c, prev, out); err != nil {
			return err
		}
	}
	r.win, r.spare = next, prev
	if out != nil && c.outN > max(target, 0) && r.emit != nil {
		if err := r.emit(out[max(target, 0):]); err != nil {
			return err
		}
		c.plainBuf = nil // the callee owns it now
		r.emitted.Add(1)
	}
	r.bit = c.end
	r.out += c.outN
	r.atStart = false
	if r.outCounter != nil {
		r.outCounter.Add(c.outN)
	}
	r.syncWall += c.m.Find
	r.pass1Wall += c.m.Pass1
	if r.resident {
		r.chunks = append(r.chunks, c.m)
	}
	r.src.win.DiscardTo(r.bit / 8)
	return nil
}

// checkpoints is the one place a chunk becomes restart points. Its
// candidates are every block boundary of a chunk whose bytes (out) or
// symbols are whole, the capture walk's snapshots of a measured exact
// one, and otherwise the chunk start, whose resolved window is prev.
// Those at or past r.nextCP are emitted, advancing it by the spacing
// each time.
func (r *run) checkpoints(c *chunk, prev, out []byte) error {
	due := func(rel int64) bool { return r.out+rel >= r.nextCP }
	emit := func(bit, rel int64, win []byte) error {
		r.nextCP = r.out + rel + r.cpSpacing
		return r.onCP(Checkpoint{Bit: bit, Out: r.out + rel, Window: win})
	}
	switch {
	case out != nil || (c.sym != nil && !c.measured):
		for j, s := range c.spans {
			at := s.OutStart
			if !due(at) {
				continue
			}
			win := make([]byte, tracked.WindowSize)
			if out != nil {
				shiftWindow(win, prev, out[:at])
			} else if err := tracked.ResolveWindowInto(win, c.sym.Out[:at], prev); err != nil {
				return err
			}
			// A stored block's byte-alignment padding makes a chunk's
			// candidate start bit ambiguous (stitching verified the decodes
			// equivalent). A sequential decode, the reference an index is
			// compared against, reports the predecessor's end bit.
			bit := c.base + s.Event.StartBit
			if j == 0 {
				bit = c.start
			}
			if err := emit(bit, at, win); err != nil {
				return err
			}
		}
	case c.caps != nil || r.exact:
		for _, cp := range c.caps {
			if due(cp.Out) {
				if err := emit(cp.Bit, cp.Out, cp.Window); err != nil {
					return err
				}
			}
		}
	default:
		if due(0) {
			return emit(c.start, 0, append([]byte(nil), prev...))
		}
	}
	return nil
}

// reserve makes room in the resident output for n more bytes. When it
// must grow the output, it grows it for the rest of the source at the
// expansion seen so far (members before this one included), so a file
// of many members grows its one output a few times, not once a member.
// The expansion of earlier members need not carry over (a run of zeros
// before random bytes), so that estimate is capped at the larger of
// initialRatio times the compressed bytes left, the guess a fresh
// member starts from, and three times what the output holds.
func (r *run) reserve(n int) {
	if cap(r.whole)-len(r.whole) >= n {
		return
	}
	held, grow := len(r.whole), n
	if consumed := r.bit / 8; held > 0 && consumed > 0 {
		lim, _ := r.src.limit()
		left := float64(lim - consumed)
		rest := left * (float64(held)/float64(consumed)*1.1 + 0.1)
		grow = max(n, int(min(rest, max(left*initialRatio, 3*float64(held)))))
	}
	r.whole = append(make([]byte, 0, held+grow), r.whole...)
}

// verifyEquivalentStart checks that decoding one block at trueBit (the
// predecessor's exact end, absolute) is indistinguishable from the
// first block chunk next decoded from its candidate start: same block
// type, same data bit, same end bit, same output size. When all four
// agree the two decodes consumed the same token stream and the outputs
// concatenate exactly. data begins at absolute bit base.
func verifyEquivalentStart(data []byte, base, trueBit int64, next *chunk) error {
	if len(next.spans) == 0 {
		return errors.New("successor chunk decoded no blocks")
	}
	got := next.spans[0]
	r, err := bitio.NewReaderAt(data, trueBit-base)
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
	case base+probe.ev.DataBit != next.base+got.Event.DataBit:
		return fmt.Errorf("data bit mismatch: %d vs %d", base+probe.ev.DataBit, next.base+got.Event.DataBit)
	case base+probe.endBit != next.base+got.EndBit:
		return fmt.Errorf("end bit mismatch: %d vs %d", base+probe.endBit, next.base+got.EndBit)
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

// Work counts what a decode did beyond its output: the block-sync
// offsets it tried, the bytes it decoded (discarded speculative and
// re-decoded output included) and the spans the resolver took over from
// a worker whose sync had not confirmed (or failed).
type Work struct {
	BitsTried int64
	Decoded   int64
	TakeOvers int64
}

// workCounter accumulates Work from any goroutine.
type workCounter struct{ bitsTried, decoded, takeOvers atomic.Int64 }

// totalWork is every decode's Work in this process (TotalWork).
var totalWork workCounter

// TotalWork returns the Work of every decode in this process so far;
// tests read it around a call on any surface.
func TotalWork() Work { return totalWork.load() }

// add counts d here and in the process total.
func (w *workCounter) add(d Work) {
	for _, c := range []*workCounter{w, &totalWork} {
		c.bitsTried.Add(d.BitsTried)
		c.decoded.Add(d.Decoded)
		c.takeOvers.Add(d.TakeOvers)
	}
}

func (w *workCounter) load() Work {
	return Work{w.bitsTried.Load(), w.decoded.Load(), w.takeOvers.Load()}
}

// minus returns the work done since o was read from the same counter.
func (w Work) minus(o Work) Work {
	return Work{w.BitsTried - o.BitsTried, w.Decoded - o.Decoded, w.TakeOvers - o.TakeOvers}
}

// finderPool recycles block finders with the default options: each
// holds two decoders' worth of Huffman scratch.
var finderPool = sync.Pool{New: func() any { return blockfind.New() }}

// finder returns a Finder for the run's options, pooled when they are
// the defaults.
func (r *run) finder() *blockfind.Finder {
	if r.o.ValidByte == nil && r.o.Confirmations <= 0 {
		f := finderPool.Get().(*blockfind.Finder)
		f.Stats = blockfind.Stats{}
		return f
	}
	f := blockfind.NewWithOptions(flate.Options{ValidByte: r.o.ValidByte})
	if r.o.Confirmations > 0 {
		f.Confirmations = r.o.Confirmations
	}
	return f
}

func (r *run) putFinder(f *blockfind.Finder) {
	if r.o.ValidByte == nil && r.o.Confirmations <= 0 {
		f.Stop = nil
		finderPool.Put(f)
	}
}
