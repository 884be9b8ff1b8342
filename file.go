package pugz

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/gzindex"
	"repro/internal/gzipx"
)

// FileOptions configures a File.
type FileOptions struct {
	// Threads is the number of spans in flight during sequential-scan
	// reads (values < 1 select 1... runtime.NumCPU is a good choice).
	Threads int
	// BatchCompressedBytes bounds the compressed bytes in flight during
	// sequential-scan reads (default 4 MiB x Threads; see StreamOptions).
	BatchCompressedBytes int
	// MinChunk is the minimum compressed bytes per chunk.
	MinChunk int
	// Index, when set, accelerates ReadAt within the first member to an
	// inflate of the checkpoint spans the read touches (the zran
	// baseline) instead of a scan from the start. It must have been
	// built (or loaded) for this same gzip file.
	Index *Index
	// AutoIndexSpacing tunes the restart points a File retains as a
	// side-channel of its own reads: deep unindexed seeks harvest
	// checkpoints (32 KiB of memory each) at least this many output
	// bytes apart, so repeated deep seeks into the same File stop
	// re-decoding from the start. 0 selects 1 MiB; negative disables
	// auto-indexing.
	AutoIndexSpacing int64
	// MaxIdleCursors bounds how many forward-scan cursors the File
	// retains between reads. Each idle cursor holds a paused streaming
	// pipeline (O(batch x threads) memory), so this is the File's idle
	// memory bound; concurrent readers beyond it still run in parallel
	// on their own transient cursors, which are closed on release
	// instead of pooled. 0 selects 4; negative retains none.
	MaxIdleCursors int
}

// File provides random access to decompressed content over any
// io.ReaderAt — an os.File, an mmap, a bytes.Reader, a remote blob
// adapter — without ever materialising the whole compressed or
// decompressed stream. It is the seekable surface of the unified
// engine:
//
//   - ReadAt / Read / Seek address *decompressed* offsets exactly
//     (output is byte-identical to gunzip's). With an Index, reads
//     within the first member inflate only from the nearest
//     checkpoint; without one, reads decode forward from the start
//     through the bounded-memory parallel pipeline, and pooled
//     cursors make ascending reads (the scan pattern) cost one pass
//     total.
//
//   - RandomAccessAt addresses *compressed* offsets the paper's way:
//     no index, no decode-from-start — sync to a block by brute-force
//     bit scanning and decode with an undetermined context
//     (Sections IV and VI), yielding partially resolved text
//     immediately.
//
// # Concurrency
//
// ReadAt, Size, Checkpoints, RandomAccessAt, FindBlockAt and Close are
// safe for concurrent use and scale with the number of callers: the
// shared state (source, header, attached index, cached size, harvested
// restart points) is immutable or behind atomic/copy-on-write
// pointers, and each ReadAt claims its own cursor from a pool instead
// of contending on one lock. Indexed reads share nothing mutable at
// all; unindexed reads each hold one streaming cursor (O(batch x
// threads) memory) for the duration of the call, of which at most
// MaxIdleCursors are retained between calls. Concurrent deep seeks
// merge the restart points they harvest into one auto-index. The first
// Size call on an unindexed File runs a single measuring pass that
// concurrent callers share (singleflight). Read and Seek are also safe
// for concurrent use, but they address one shared stream position, so
// concurrent Read calls serialise on it — use ReadAt to scale.
// SetIndex and BuildIndex may run concurrently with reads; ScanBlocks
// is a long sequential walk and safe alongside any of the above.
type File struct {
	src  io.ReaderAt
	size int64  // compressed size
	raw  []byte // non-nil for in-memory sources: zero-copy windows
	opts FileOptions

	hdrLen int64 // first member's header length

	// Shared snapshot state: everything a concurrent read consults is
	// immutable (src, size, raw, hdrLen, opts sans Index) or atomic.
	ix     atomic.Pointer[Index] // attached checkpoint index
	usize  atomic.Int64          // cached decompressed size, -1 = not yet known
	sizeMu sync.Mutex            // singleflight for the Size measuring pass

	posMu sync.Mutex
	pos   int64 // Read/Seek cursor (decompressed); guarded by posMu

	// inflated counts the decompressed bytes this File has decoded or
	// skipped over on behalf of its reads (see InflatedBytes).
	inflated atomic.Int64

	cursors cursorPool

	// Auto-index: restart points within the first member, harvested as
	// a side-channel of deep seeks (and Size passes) and consulted when
	// a cursor must be opened. Readers load the sorted set via one
	// atomic pointer (RCU-style: the slice is never mutated in place);
	// writers — pipeline workers of concurrent cursors — merge their
	// insertions under cpMu via copy-on-write.
	cpMu sync.Mutex
	cps  atomic.Pointer[[]fileCheckpoint] // sorted by out; Store guarded by cpMu (Load is lock-free)
}

// fileCheckpoint is one retained restart point of the first member.
type fileCheckpoint struct {
	bit int64  // block-boundary bit offset within the member's payload
	out int64  // decompressed offset at the boundary
	win []byte // resolved 32 KiB preceding it (immutable once stored)
}

// fileCursor is the forward-scan state for unindexed reads: a
// streaming Reader over the compressed file plus the decompressed
// offset it has reached. skipPending marks a cursor opened with a
// pipeline-level skip whose target has not been confirmed reachable
// yet: until the first byte arrives, pos is presumptive (the stream
// may end before it), so it must not be trusted as a size measurement
// or as a proximity signal against a checkpoint inflate.
//
// A cursor is owned by exactly one goroutine between claim and
// release, so its fields need no lock.
type fileCursor struct {
	r           *Reader
	pos         int64
	skipPending bool
}

// cursorPool holds the File's idle forward-scan cursors. Claiming
// picks the cursor nearest below the target offset so ascending scans
// keep their one-pass cost and concurrent scans at different depths
// each keep their own cursor; releasing beyond maxIdle closes the
// cursor instead, bounding idle memory.
type cursorPool struct {
	mu      sync.Mutex
	idle    []*fileCursor // guarded by mu
	maxIdle int
}

// claim removes and returns the idle cursor that can serve offset off
// most cheaply: position at or below off, within maxGap of it, and —
// when trusted is set — not skipPending (a presumptive position must
// not win a proximity contest; see fileCursor). Returns nil when no
// idle cursor qualifies.
func (cp *cursorPool) claim(off, maxGap int64, trusted bool) *fileCursor {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	best := -1
	for i, c := range cp.idle {
		if c.pos > off || off-c.pos > maxGap {
			continue
		}
		if trusted && c.skipPending {
			continue
		}
		if best < 0 || c.pos > cp.idle[best].pos ||
			(c.pos == cp.idle[best].pos && cp.idle[best].skipPending && !c.skipPending) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	c := cp.idle[best]
	cp.idle = append(cp.idle[:best], cp.idle[best+1:]...)
	return c
}

// release returns a claimed cursor to the pool, or closes it when the
// pool is full (or disabled).
func (cp *cursorPool) release(c *fileCursor) {
	cp.mu.Lock()
	if len(cp.idle) < cp.maxIdle {
		cp.idle = append(cp.idle, c)
		cp.mu.Unlock()
		return
	}
	cp.mu.Unlock()
	c.r.Close()
}

// drain closes every idle cursor.
func (cp *cursorPool) drain() {
	cp.mu.Lock()
	idle := cp.idle
	cp.idle = nil
	cp.mu.Unlock()
	for _, c := range idle {
		c.r.Close()
	}
}

// defaultMaxIdleCursors is the default cursor-pool size: enough for a
// handful of interleaved ascending scans without letting idle
// pipelines dominate memory.
const defaultMaxIdleCursors = 4

// NewFile opens a gzip file over an arbitrary io.ReaderAt of the given
// compressed size. The first member header is parsed (and validated)
// before returning.
func NewFile(src io.ReaderAt, size int64, o FileOptions) (*File, error) {
	f := &File{src: src, size: size, opts: o}
	f.usize.Store(-1)
	f.ix.Store(o.Index)
	switch {
	case o.MaxIdleCursors > 0:
		f.cursors.maxIdle = o.MaxIdleCursors
	case o.MaxIdleCursors == 0:
		f.cursors.maxIdle = defaultMaxIdleCursors
	}
	br := bufio.NewReader(io.NewSectionReader(src, 0, size))
	m, err := gzipx.ReadHeader(br)
	if err != nil {
		return nil, err
	}
	f.hdrLen = int64(m.HeaderLen)
	return f, nil
}

// NewFileBytes is NewFile over an in-memory gzip file. Byte-source
// windows alias the slice directly (no copying), so the slice must not
// be mutated while the File is in use.
func NewFileBytes(gz []byte, o FileOptions) (*File, error) {
	f, err := NewFile(bytes.NewReader(gz), int64(len(gz)), o)
	if err != nil {
		return nil, err
	}
	f.raw = gz
	return f, nil
}

// index returns the currently attached checkpoint index, if any.
func (f *File) index() *Index { return f.ix.Load() }

// setIndex atomically attaches ix (SetIndex, BuildIndex) so in-flight
// reads see either the old or the new index, never a torn one.
func (f *File) setIndex(ix *Index) {
	f.ix.Store(ix)
	if ix != nil && ix.coversWholeFile(f.size) {
		f.usize.CompareAndSwap(-1, ix.Size())
	}
}

// streamOptions assembles the cursor's Reader configuration.
func (f *File) streamOptions() StreamOptions {
	return StreamOptions{
		Threads:              f.opts.Threads,
		BatchCompressedBytes: f.opts.BatchCompressedBytes,
		MinChunk:             f.opts.MinChunk,
	}
}

// ReadAt fills p with decompressed bytes starting at decompressed
// offset off, implementing io.ReaderAt over the *output* stream. Reads
// that land inside the indexed extent are served from the nearest
// checkpoint; everything else decodes forward from the member start on
// a pooled cursor, so a sequence of ascending ReadAt calls costs one
// sequential pass in total. Short reads at end of stream return io.EOF.
//
// ReadAt is safe for concurrent use and does not serialise callers:
// each call claims its own cursor (or decodes directly from a
// checkpoint) against the File's immutable snapshot state.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("pugz: negative read offset %d", off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	return f.readAt(p, off)
}

// readAt serves a positional read, choosing between the checkpoint
// index and a pooled forward-scan cursor: a cursor wins only when one
// is already at (or within one checkpoint spacing behind) the target
// with a trusted position, where continuing the scan costs less than a
// checkpoint-to-offset inflate. A skipPending cursor never wins here:
// its position is presumptive, so preferring it over a cheap
// checkpoint inflate would be betting on a guess.
func (f *File) readAt(p []byte, off int64) (int, error) {
	if ix := f.index(); ix != nil && off+int64(len(p)) <= ix.Size() {
		cur := f.cursors.claim(off, ix.spacing(), true)
		if cur == nil {
			n, err := ix.readAtSource(f, p, off)
			if err == nil && n < len(p) {
				err = io.EOF
			}
			return n, err
		}
		return f.readAtCursor(cur, p, off)
	}
	cur := f.cursors.claim(off, cursorReopenGap, false)
	if cur == nil {
		var err error
		cur, err = f.openCursor(off)
		if err != nil {
			return 0, err
		}
	}
	return f.readAtCursor(cur, p, off)
}

// cursorReopenGap is how far ahead of a live cursor a target may lie
// before continuing the translate-and-discard scan loses to opening a
// cursor with a pipeline-level skip: a fresh cursor restarts from the
// nearest retained checkpoint and covers the gap without pass-2
// translation (the parallel two-pass skip).
const cursorReopenGap = 4 << 20

// readAtCursor serves a positional read by scanning forward on a
// claimed cursor (owned by this call). Small forward gaps are
// discarded in-line, which keeps ascending reads on one pass; the
// cursor returns to the pool on success and is closed on a stream
// error (its decode state is unusable past a failure).
func (f *File) readAtCursor(cur *fileCursor, p []byte, off int64) (n int, err error) {
	defer func() {
		if err != nil && err != io.EOF {
			cur.r.Close()
			return
		}
		f.cursors.release(cur)
	}()
	if skip := off - cur.pos; skip > 0 {
		m, cerr := io.CopyN(io.Discard, cur.r, skip)
		f.inflated.Add(m)
		if m > 0 {
			// Bytes flowed out of the pipeline, which proves its skip
			// target was reached: pos is exact from here on.
			cur.skipPending = false
		}
		cur.pos += m
		if cerr != nil {
			if errors.Is(cerr, io.EOF) {
				// Clean end of stream during the discard: with an exact
				// position this reveals the true decompressed size, so
				// cache it — otherwise every later past-EOF ReadAt pays
				// a full measuring re-scan.
				f.cacheSizeFromCursor(cur)
				return 0, io.EOF // offset past end of stream
			}
			err = cerr
			return 0, cerr
		}
	}
	n, err = io.ReadFull(cur.r, p)
	f.inflated.Add(int64(n))
	if n > 0 {
		// The stream reached the cursor's skip target: pos is exact again.
		cur.skipPending = false
	}
	cur.pos += int64(n)
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		err = io.EOF
		f.cacheSizeFromCursor(cur)
	}
	return n, err
}

// cacheSizeFromCursor records the decompressed size revealed by a
// cursor reaching clean end of stream — but only when its position is
// exact (a skipPending position is presumptive and must never be
// trusted as a size measurement).
func (f *File) cacheSizeFromCursor(cur *fileCursor) {
	if !cur.skipPending {
		f.usize.CompareAndSwap(-1, cur.pos)
	}
}

// openCursor opens a streaming cursor whose next byte is the one at
// decompressed offset off. The cursor starts at the best restart point
// at or before off — a retained auto-index checkpoint, an attached
// Index checkpoint, or the file start — and covers the remaining gap
// with the pipeline's translation-free skip; restart points discovered
// while skipping are retained (merged across concurrent cursors), so
// repeated deep seeks into the same File stop re-decoding from the
// start.
func (f *File) openCursor(off int64) (*fileCursor, error) {
	var (
		secBase  int64
		cs       cursorState
		startOut int64
	)
	if cp := f.bestRestart(off); cp != nil {
		secBase = f.hdrLen + cp.bit/8
		cs.resume = &resumePoint{bit: cp.bit % 8, window: cp.win, out: cp.out}
		startOut = cp.out
	}
	cs.skipTo = off
	if sp := f.autoIndexSpacing(); sp > 0 && f.Checkpoints() < maxAutoCheckpoints {
		// Once the retention cap is hit the side-channel is not wired at
		// all: each checkpoint costs a 32 KiB window copy in the
		// pipeline, pure waste when retainCheckpoint would drop it.
		cs.spacing = sp
		cs.onCheckpoint = func(cp core.Checkpoint) { f.retainCheckpoint(cp, secBase) }
	}
	r, err := newCursorReader(io.NewSectionReader(f.src, secBase, f.size-secBase), f.streamOptions(), cs)
	if err != nil {
		return nil, err
	}
	// The pipeline-level skip decodes (without translating) the whole
	// restart-to-target gap; count it as inflation up front. For skips
	// past the end of the stream this over-counts by the unreachable
	// part, which is fine for a diagnostic (see InflatedBytes).
	f.inflated.Add(off - startOut)
	return &fileCursor{r: r, pos: off, skipPending: off > startOut}, nil
}

// bestRestart returns the restart point closest below off: the best of
// the retained auto-index checkpoints and the attached Index's
// checkpoints (both first-member surfaces), or nil to start from the
// beginning of the file. A checkpoint at output offset 0 is never
// returned: resuming there with its zeroed window would seed the
// decoder's context and silently soften the strict member-start rule
// (back-references before the stream start must be rejected, not read
// as zeros) — starting from scratch costs the same and keeps it.
func (f *File) bestRestart(off int64) *fileCheckpoint {
	var best *fileCheckpoint
	if p := f.cps.Load(); p != nil {
		cps := *p
		if i := sort.Search(len(cps), func(i int) bool { return cps[i].out > off }); i > 0 {
			cp := cps[i-1]
			best = &cp
		}
	}
	if ix := f.index(); ix != nil && ix.Size() > 0 {
		// Past the indexed extent the index's last checkpoint is still
		// the best first-member restart (the cursor handles the trailer
		// and any following members from there).
		lookup := off
		if lookup >= ix.Size() {
			lookup = ix.Size() - 1
		}
		if cp, err := ix.inner.FindCheckpoint(lookup); err == nil {
			if best == nil || cp.Out > best.out {
				best = &fileCheckpoint{bit: cp.Bit, out: cp.Out, win: cp.Window}
			}
		}
	}
	if best != nil && best.out == 0 {
		return nil
	}
	return best
}

// autoIndexSpacing resolves FileOptions.AutoIndexSpacing (0 means the
// zran default, negative disables).
func (f *File) autoIndexSpacing() int64 {
	switch {
	case f.opts.AutoIndexSpacing < 0:
		return 0
	case f.opts.AutoIndexSpacing == 0:
		return gzindex.DefaultSpacing
	}
	return f.opts.AutoIndexSpacing
}

// maxAutoCheckpoints caps the auto-index so its windows never dominate
// memory regardless of file size: 1024 x 32 KiB = 32 MiB at most. Past
// the cap new restart points are dropped; the retained set keeps
// serving (callers wanting denser coverage of huge files attach a real
// Index, whose windows live in one marshalled blob instead).
const maxAutoCheckpoints = 1024

// retainCheckpoint files a restart point discovered by a cursor whose
// source section began at compressed offset secBase. Runs on the
// cursor's worker goroutine, concurrent with reads and with other
// cursors' harvests — writers merge under cpMu by publishing a fresh
// sorted slice (copy-on-write), so bestRestart readers never lock.
// Neighbours closer than half the spacing are not duplicated, so
// overlapping skip passes converge instead of accreting.
func (f *File) retainCheckpoint(cp core.Checkpoint, secBase int64) {
	bit := (secBase-f.hdrLen)*8 + cp.Bit
	if bit < 0 || cp.Out == 0 {
		// Pre-payload artifacts cannot happen for well-formed runs; the
		// member-start boundary is useless as a restart point (see
		// bestRestart) and would only occupy a retention slot.
		return
	}
	gap := f.autoIndexSpacing() / 2
	f.cpMu.Lock()
	defer f.cpMu.Unlock()
	var cps []fileCheckpoint
	if p := f.cps.Load(); p != nil {
		cps = *p
	}
	if len(cps) >= maxAutoCheckpoints {
		return
	}
	i := sort.Search(len(cps), func(i int) bool { return cps[i].out >= cp.Out })
	if i < len(cps) && cps[i].out-cp.Out < gap {
		return
	}
	if i > 0 && cp.Out-cps[i-1].out < gap {
		return
	}
	next := make([]fileCheckpoint, len(cps)+1)
	copy(next, cps[:i])
	next[i] = fileCheckpoint{bit: bit, out: cp.Out, win: cp.Window}
	copy(next[i+1:], cps[i:])
	f.cps.Store(&next)
}

// Checkpoints returns the number of auto-index restart points the File
// has retained so far (diagnostics; safe for concurrent use).
func (f *File) Checkpoints() int {
	if p := f.cps.Load(); p != nil {
		return len(*p)
	}
	return 0
}

// InflatedBytes reports the total decompressed bytes this File has
// decoded or skipped over to serve its reads so far: indexed reads
// (from the span's checkpoint through the end of the DEFLATE block
// holding the read's last byte — whole blocks are decoded, so a read
// of exactly one File.SpanAt extent counts exactly that extent),
// forward-scan discards, pipeline-level skips and Size measuring
// passes all count, so InflatedBytes/bytes-returned is the File's
// read amplification. The value is a monotonic diagnostic,
// approximate at the margins (a skip aimed past the end of the stream
// counts its full intended distance) and safe for concurrent use.
func (f *File) InflatedBytes() int64 { return f.inflated.Load() }

// SpanAt returns the decompressed extent [start, end) of the attached
// index's checkpoint span holding offset off. A span begins and ends on
// a DEFLATE block boundary, so ReadAt(buf, start) with len(buf) ==
// end-start inflates exactly those bytes and nothing else — the unit a
// cache of decoded ranges should hold. ok is false when no index is
// attached or off lies outside it (negative, or past the first member).
// Safe for concurrent use.
func (f *File) SpanAt(off int64) (start, end int64, ok bool) {
	ix := f.index()
	if ix == nil {
		return 0, 0, false
	}
	return ix.inner.SpanAt(off)
}

// CachedSize returns the total decompressed size if it is already
// known — measured by an earlier pass, revealed by a cursor reaching
// clean EOF, or derived from an attached whole-file index — without
// triggering the measuring pass Size would run. Safe for concurrent
// use.
func (f *File) CachedSize() (int64, bool) {
	if u := f.usize.Load(); u >= 0 {
		return u, true
	}
	if ix := f.index(); ix != nil && ix.coversWholeFile(f.size) {
		return ix.Size(), true
	}
	return 0, false
}

// Read implements io.Reader at the Seek cursor. Like ReadAt it uses
// the checkpoint index when one is attached and no pooled cursor is
// already close to the position, so a Seek deep into an indexed file
// does not trigger a decode-from-start. Concurrent Read calls are safe
// but serialise on the shared stream position; use ReadAt for reads
// that should scale.
func (f *File) Read(p []byte) (int, error) {
	f.posMu.Lock()
	defer f.posMu.Unlock()
	if len(p) == 0 {
		return 0, nil
	}
	n, err := f.readAt(p, f.pos)
	f.pos += int64(n)
	if n > 0 && errors.Is(err, io.EOF) {
		err = nil // io.Reader convention: report EOF on the next call
	}
	return n, err
}

// Seek implements io.Seeker over the decompressed stream. Seeking
// relative to io.SeekEnd requires the decompressed size (see Size).
func (f *File) Seek(offset int64, whence int) (int64, error) {
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		f.posMu.Lock()
		base = f.pos
		f.posMu.Unlock()
	case io.SeekEnd:
		size, err := f.Size()
		if err != nil {
			return 0, err
		}
		base = size
	default:
		return 0, fmt.Errorf("pugz: invalid seek whence %d", whence)
	}
	pos := base + offset
	if pos < 0 {
		return 0, fmt.Errorf("pugz: negative seek position %d", pos)
	}
	f.posMu.Lock()
	f.pos = pos
	f.posMu.Unlock()
	return pos, nil
}

// Size returns the total decompressed size across all members. Without
// an index covering the whole file this requires one measuring pass the
// first time it is called — bounded-memory, parallel, and translation-
// free (the pipeline counts exact output without materialising it) —
// and the result is cached. Concurrent first calls share a single
// measuring pass (singleflight); once cached, Size is a lock-free
// load. Checkpoints discovered along the way feed the auto-index, so a
// Size call also primes later deep seeks. Note a gzip trailer's ISIZE
// field is modulo 2^32 and per-member, so it is not used.
func (f *File) Size() (int64, error) {
	if u := f.usize.Load(); u >= 0 {
		return u, nil
	}
	// A single-member file with an attached index needs no decode pass:
	// the index already measured the whole output.
	if ix := f.index(); ix != nil && ix.coversWholeFile(f.size) {
		f.usize.CompareAndSwap(-1, ix.Size())
		return ix.Size(), nil
	}
	f.sizeMu.Lock()
	defer f.sizeMu.Unlock()
	if u := f.usize.Load(); u >= 0 {
		return u, nil // another caller measured while we waited
	}
	cs := cursorState{skipTo: math.MaxInt64}
	if sp := f.autoIndexSpacing(); sp > 0 && f.Checkpoints() < maxAutoCheckpoints {
		cs.spacing = sp
		cs.onCheckpoint = func(cp core.Checkpoint) { f.retainCheckpoint(cp, 0) }
	}
	r, err := newCursorReader(io.NewSectionReader(f.src, 0, f.size), f.streamOptions(), cs)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	if _, err := io.Copy(io.Discard, r); err != nil {
		return 0, err
	}
	size := r.Stats().OutBytes
	f.inflated.Add(size)
	f.usize.Store(size)
	return size, nil
}

// Close releases the File's idle forward-scan cursors. The underlying
// source is not closed. The File remains usable; a later read simply
// opens a fresh cursor. Safe to call concurrently with reads: cursors
// claimed by in-flight reads are unaffected (they return to the pool
// when their read completes).
func (f *File) Close() error {
	f.cursors.drain()
	return nil
}

// --- Byte-source windows ----------------------------------------------

// srcWindow is a loaded extent of the compressed file: the byte-source
// abstraction the compressed-offset surfaces (RandomAccessAt,
// ScanBlocks, FindBlockAt) decode through instead of whole-file slices;
// the index path, which knows the exact compressed extent of a span,
// loads it as one window and never grows it. For in-memory sources a
// window aliases the original slice (zero copy, always extends to EOF);
// for true io.ReaderAt sources it is filled on demand and grown
// geometrically when a decode runs off its end. Each window is private
// to one call, so decoding through windows is safe for any number of
// concurrent readers (io.ReaderAt sources must tolerate concurrent
// ReadAt, per that interface's contract).
type srcWindow struct {
	src   io.ReaderAt
	size  int64 // total source size
	base  int64 // source offset of data[0]
	data  []byte
	atEOF bool // data reaches the end of the source
	owned bool // data is a private buffer (false: aliases a raw slice)
}

// openWindow loads [base, base+n) of the compressed file (n is clamped
// to the file size; in-memory sources always map through to EOF).
// Touches only the File's immutable snapshot (src, size, raw), so it
// is safe for concurrent use.
func (f *File) openWindow(base, n int64) (*srcWindow, error) {
	if base > f.size {
		base = f.size
	}
	w := &srcWindow{src: f.src, size: f.size, base: base}
	if f.raw != nil {
		w.data = f.raw[base:]
		w.atEOF = true
		return w, nil
	}
	w.owned = true
	return w, w.extend(n)
}

// extend grows the window by reading n more source bytes after the
// currently loaded extent.
func (w *srcWindow) extend(n int64) error {
	if w.atEOF {
		return nil
	}
	end := w.base + int64(len(w.data)) + n
	if end >= w.size {
		end = w.size
		w.atEOF = true
	}
	need := int(end - w.base - int64(len(w.data)))
	if need <= 0 {
		return nil
	}
	ext := make([]byte, need)
	m, err := w.src.ReadAt(ext, w.base+int64(len(w.data)))
	w.data = append(w.data, ext[:m]...)
	if err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	if errors.Is(err, io.EOF) {
		w.atEOF = true
	}
	return nil
}

// grow doubles the loaded extent. It reports whether the window
// actually got bigger (false once EOF is reached: retrying a failed
// decode cannot help any more).
func (w *srcWindow) grow() (bool, error) {
	if w.atEOF {
		return false, nil
	}
	before := len(w.data)
	n := int64(before)
	if n < minWindowLoad {
		n = minWindowLoad
	}
	if err := w.extend(n); err != nil {
		return false, err
	}
	return len(w.data) > before, nil
}

// discardTo drops the window prefix before source offset off, bounding
// residency for long forward walks (ScanBlocks). A no-op for raw-slice
// windows (they alias the caller's memory) and below the compaction
// threshold (slicing alone would pin the full backing array).
func (w *srcWindow) discardTo(off int64) {
	if !w.owned || off <= w.base {
		return
	}
	k := off - w.base
	if k < minWindowLoad {
		return
	}
	w.data = append([]byte(nil), w.data[k:]...)
	w.base = off
}

// minWindowLoad is the smallest extent loaded from a true io.ReaderAt
// source (in-memory sources alias the slice and never load). Block
// detection confirms a start within tens of KiB in practice, so half a
// MiB serves most finds in one load while growth stays geometric.
const minWindowLoad = 512 << 10
