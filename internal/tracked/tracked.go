// Package tracked implements decompression with an undetermined
// context (Sections IV-B and VI-C of the paper).
//
// When decoding starts mid-stream, the 32 KiB history window that
// back-references reach into is unknown. Instead of a plain '?'
// character, the window is seeded with 32768 *unique* symbols
// U_0..U_32767 (the paper's ŵ). Decoding then proceeds normally:
// literals append resolved bytes, matches copy whatever the window
// holds — possibly symbols. The output is a sequence over the alphabet
// bytes ∪ {U_j}; every occurrence of U_j records precisely that "this
// output byte equals byte j of the unknown initial context", which is
// what makes the exact two-pass parallel algorithm possible.
package tracked

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bitio"
	"repro/internal/flate"
)

const (
	// WindowSize is the DEFLATE context size being tracked.
	WindowSize = flate.WindowSize

	// SymBase is the first symbolic value: cell value SymBase+j means
	// U_j. Values below SymBase are resolved bytes.
	SymBase = 256

	// UndeterminedByte is the narrow rendering of any unresolved
	// symbol, used for display and by the FASTQ heuristics ('?' in the
	// paper's figures).
	UndeterminedByte = '?'
)

// Sink is the flat symbolic sink: a flate.Linear over uint16 cells
// whose Prefix is the 32768-symbol initial context, so back-references
// into the unknown window resolve with plain slice indexing.
type Sink struct{ flate.Linear[uint16] }

// NewSink returns a Sink with a fully undetermined initial context and
// capacity for sizeHint output entries. Its buffer comes from the
// full-size pool; hand it back via Release (or the owning Result's
// Release).
func NewSink(sizeHint int) *Sink {
	s := &Sink{}
	s.Out = seedSymbols(getSymBuf(WindowSize + sizeHint))
	s.Prefix = WindowSize
	return s
}

// Release returns the buffer to the full-size pool. The sink (and any
// Output slice taken from it) must not be used afterwards.
func (s *Sink) Release() {
	putSymBuf(s.Out)
	s.Out = nil
}

// seedSymbols fills the first WindowSize entries of buf (capacity
// permitting) with U_0..U_32767 and returns them.
func seedSymbols(buf []uint16) []uint16 {
	buf = buf[:WindowSize]
	for j := range buf {
		buf[j] = uint16(SymBase + j)
	}
	return buf
}

// --- Buffer pools -----------------------------------------------------
//
// The parallel engine decodes one symbolic buffer per chunk per batch
// and one resolved 32 KiB window per chunk; at streaming rates that is
// thousands of multi-megabyte allocations per file. The pools below let
// the hot path recycle both: symbolic buffers return via
// Result.Release once pass-2 translation has consumed them, windows via
// PutWindow once the propagation chain moves past them.

// symBufs is a small bounded free list, not a sync.Pool: a symbolic
// buffer is filled on a worker's goroutine and released on the
// resolver's, and a sync.Pool keeps a lone item in its putter's
// per-processor slot, out of the other processor's reach. Its slots
// cover the chunks in flight at once.
var symBufs = make(chan []uint16, 4)

// maxSymBufCells is the largest symbolic buffer kept for reuse.
const maxSymBufCells = 64 << 20

// getSymBuf returns an empty buffer with room for capHint cells. Kept
// buffers too small for it are dropped on the way; a new one gets a
// quarter of headroom, so chunks of similar size keep reusing it.
func getSymBuf(capHint int) []uint16 {
	for {
		select {
		case b := <-symBufs:
			if cap(b) >= capHint {
				return b[:0]
			}
		default:
			return make([]uint16, 0, capHint+capHint/4)
		}
	}
}

func putSymBuf(b []uint16) {
	if cap(b) == 0 || cap(b) > maxSymBufCells {
		return
	}
	select {
	case symBufs <- b[:0]:
	default:
	}
}

var windowPool = sync.Pool{
	New: func() any { return make([]byte, WindowSize) },
}

// windowsOut counts windows taken from the pool and not yet returned.
var windowsOut atomic.Int64

// WindowsOut returns how many pooled windows are taken and not yet
// returned: a decode that balances its pool leaves it unchanged.
func WindowsOut() int64 { return windowsOut.Load() }

// GetWindow returns a zeroed WindowSize context buffer from the pool.
func GetWindow() []byte {
	w := windowPool.Get().([]byte)
	clear(w)
	windowsOut.Add(1)
	return w
}

// PutWindow returns a window obtained from GetWindow (or ResolveWindow)
// to the pool. Putting nil is a no-op.
func PutWindow(w []byte) {
	if cap(w) < WindowSize {
		return
	}
	windowsOut.Add(-1)
	windowPool.Put(w[:WindowSize]) //nolint:staticcheck
}

// Result bundles a tracked decode.
type Result struct {
	// Out is the decoded symbolic stream. After DecodeFrom it is the
	// full output; after DecodeTailFrom only the trailing
	// min(OutLen, WindowSize) entries survive.
	Out []uint16
	// OutLen is the total number of output entries decoded — equal to
	// len(Out) for a full decode, and the true (possibly much larger)
	// output length for a tail-only decode.
	OutLen int64
	Spans  []flate.BlockSpan
	EndBit int64 // bit offset after the last fully decoded block
	Final  bool  // whether the stream's final block was reached

	buf     []uint16 // pooled backing of Out (context prefix included)
	tailBuf bool     // buf belongs to the tail pool, not the full-size pool
}

// Release returns the decode buffer backing Out to its package pool.
// Out (and any slice aliasing it) must not be used afterwards; Spans
// remain valid. Calling Release twice, or on a Result that owns no
// pooled buffer, is a no-op.
func (r *Result) Release() {
	if r.tailBuf {
		putTailBuf(r.buf)
	} else {
		putSymBuf(r.buf)
	}
	r.buf, r.Out = nil, nil
}

// DecodeOptions tunes DecodeFrom.
type DecodeOptions struct {
	// MaxOutput stops decoding after this many output bytes (0 = no
	// limit).
	MaxOutput int
	// StopBit stops before any block starting at or beyond this bit.
	StopBit int64
	// RecordSpans toggles per-block span collection.
	RecordSpans bool
	// SizeHint pre-sizes the output buffer.
	SizeHint int
	// Cancel, when set, fails the decode at its next block boundary
	// (flate.ErrCanceled).
	Cancel *atomic.Bool
}

// DecodeFrom decompresses a DEFLATE stream starting at startBit of
// data with a fully undetermined context. The start must be a true
// block boundary (use internal/blockfind to locate one). Decoding ends
// at the stream's final block, at opts.StopBit, or after
// opts.MaxOutput bytes, whichever comes first.
func DecodeFrom(data []byte, startBit int64, opts DecodeOptions) (*Result, error) {
	s := NewSink(opts.SizeHint)
	res, err := decode(data, startBit, opts, s, &s.Control)
	if err != nil {
		s.Release()
		return nil, err
	}
	res.Out, res.OutLen, res.buf = s.Output(), s.Len(), s.Out
	return res, nil
}

// DecodeTailFrom is DecodeFrom in tail-only mode: same decode, same
// spans and stop conditions, but the Result carries only the output
// length and the trailing window (Result.Out holds the trailing
// min(OutLen, WindowSize) symbols; Result.OutLen the true length).
// Memory stays O(WindowSize) regardless of the chunk's output size.
func DecodeTailFrom(data []byte, startBit int64, opts DecodeOptions) (*Result, error) {
	s := NewTailSink()
	res, err := decode(data, startBit, opts, s, &s.Control)
	if err != nil {
		s.Release()
		return nil, err
	}
	res.Out, res.OutLen, res.buf, res.tailBuf = s.Tail(), s.Len(), s.Buf, true
	return res, nil
}

// decode is the body DecodeFrom and DecodeTailFrom share: it arms the
// sink's halts from opts and runs the decoder over it, leaving the
// output fields of the Result to the caller.
func decode(data []byte, startBit int64, opts DecodeOptions, v flate.Visitor, c *flate.Control) (*Result, error) {
	r, err := bitio.NewReaderAt(data, startBit)
	if err != nil {
		return nil, err
	}
	c.Limit, c.StopBit, c.Cancel = int64(opts.MaxOutput), opts.StopBit, opts.Cancel
	if opts.RecordSpans {
		c.RecordBlocks()
	}
	dec := flate.GetDecoder(flate.Options{})
	defer flate.PutDecoder(dec)
	final, err := dec.DecodeBlocks(r, v)
	if err != nil {
		return nil, fmt.Errorf("tracked: decode at bit %d: %w", startBit, err)
	}
	return &Result{Spans: c.Blocks, EndBit: c.EndBit(r), Final: final}, nil
}

// ErrSymbolRange reports a symbolic entry >= SymBase+WindowSize: no
// decode ever produces one, so the buffer is corrupt or was paired
// with the wrong alphabet. The translation loops below surface it as
// an error instead of indexing out of the context.
var ErrSymbolRange = errors.New("tracked: symbolic value out of context range")

// Resolve replaces every symbolic entry of out with the corresponding
// byte of ctx (the true initial context, len == WindowSize), writing
// bytes into dst (allocated when nil). It is the pass-2 translation of
// Figure 3: out[i] == SymBase+j  =>  dst[i] = ctx[j].
func Resolve(out []uint16, ctx []byte, dst []byte) ([]byte, error) {
	if len(ctx) != WindowSize {
		return nil, fmt.Errorf("tracked: context must be %d bytes, got %d", WindowSize, len(ctx))
	}
	if cap(dst) < len(out) {
		dst = make([]byte, len(out))
	}
	dst = dst[:len(out)]
	return resolveInto(dst, out, ctx)
}

// ResolveWindow computes the resolved last-32-KiB window of a chunk's
// output given that chunk's (resolved) initial context. This is the
// cheap sequential step of pass 2: w_{i+1} = resolve(tail(D_i), w_i).
// When the output is shorter than a window, the leading part of the
// result comes from the tail of the context itself. The returned
// window comes from the package pool; hand it back with PutWindow when
// the propagation chain moves past it.
func ResolveWindow(out []uint16, ctx []byte) ([]byte, error) {
	w := windowPool.Get().([]byte)
	if err := ResolveWindowInto(w, out, ctx); err != nil {
		PutWindow(w)
		return nil, err
	}
	return w, nil
}

// ResolveWindowInto is ResolveWindow writing into a caller-provided
// WindowSize buffer (every byte is overwritten).
func ResolveWindowInto(w []byte, out []uint16, ctx []byte) error {
	if len(ctx) != WindowSize {
		return fmt.Errorf("tracked: context must be %d bytes, got %d", WindowSize, len(ctx))
	}
	if len(w) != WindowSize {
		return fmt.Errorf("tracked: window buffer must be %d bytes, got %d", WindowSize, len(w))
	}
	n := len(out)
	if n >= WindowSize {
		_, err := resolveInto(w, out[n-WindowSize:], ctx)
		return err
	}
	// Short chunk: window = last (WindowSize-n) bytes of ctx ++ resolved out.
	copy(w, ctx[n:])
	_, err := resolveInto(w[WindowSize-n:], out, ctx)
	return err
}

// resolveInto is the translation hot loop. Symbolic entries cluster
// near the start of a chunk (the reach of its unknown context), so for
// realistic streams the bulk of the buffer is all-literal runs. Both
// kernels alternate between a packed mode — eight entries checked with
// one OR, clean groups narrowed with a single 64-bit store — and a
// symbolic-region mode: large buffers take one branch-free table load
// per entry in 4096-entry blocks (resolveSpanTab), window-sized ones a
// scalar per-entry loop in 256-entry blocks (resolveSpanScalar). In
// both, symbols are bounds-checked so a value >= SymBase+WindowSize
// (corrupt or mis-paired buffer) surfaces as ErrSymbolRange rather
// than a panic.
func resolveInto(dst []byte, out []uint16, ctx []byte) ([]byte, error) {
	var bad int
	if len(out) >= resolveTabMin {
		// Large buffers translate symbolic regions branchlessly through
		// a prepended-literal lookup table (33 KiB build, amortised).
		t := getResolveTab(ctx)
		bad = resolveSpanTab(dst, out, t[:])
		putResolveTab(t)
	} else {
		bad = resolveSpanScalar(dst, out, ctx)
	}
	if bad >= 0 {
		return nil, fmt.Errorf("%w: entry %d = %d", ErrSymbolRange, bad, out[bad])
	}
	return dst, nil
}

// resolveTabMin is the output size from which building a lookup table
// pays for itself. Window-sized resolves (<= WindowSize entries) stay
// on the scalar path.
const resolveTabMin = 64 << 10

// resolveTab is a translation table: 256 identity bytes (the literals)
// followed by the 32 KiB context, so tab[v] resolves every valid entry
// with a single load — no data-dependent branch. Recycled through a
// small mutex-guarded freelist rather than a sync.Pool: pools are
// emptied at every GC cycle, and the translation runs right where the
// engine churns multi-megabyte buffers, so a pool would re-allocate
// the table on exactly the hot path it serves.
type resolveTab [256 + WindowSize]byte

var resolveTabs struct {
	sync.Mutex
	free []*resolveTab // guarded by Mutex
}

const resolveTabKeep = 16 // bounded retention: at most ~528 KiB parked

func getResolveTab(ctx []byte) *resolveTab {
	resolveTabs.Lock()
	var t *resolveTab
	if n := len(resolveTabs.free); n > 0 {
		t = resolveTabs.free[n-1]
		resolveTabs.free = resolveTabs.free[:n-1]
	}
	resolveTabs.Unlock()
	if t == nil {
		t = new(resolveTab)
	}
	for i := 0; i < 256; i++ {
		t[i] = byte(i)
	}
	copy(t[256:], ctx)
	return t
}

func putResolveTab(t *resolveTab) {
	resolveTabs.Lock()
	if len(resolveTabs.free) < resolveTabKeep {
		resolveTabs.free = append(resolveTabs.free, t)
	}
	resolveTabs.Unlock()
}

// The two translation kernels below are call-free (errors are reported
// as an index so the hot loops stay leaf code): the return value is
// the index of the first out-of-range symbol, or -1 on success.

// resolveSpanTab translates with the prepended-literal lookup table:
// packed 8-wide stores through all-literal runs, and one branch-free
// table load per entry inside symbolic regions (a large block each,
// with packed mode re-probing between blocks — a failed probe costs a
// single group check, so no exit bookkeeping is needed).
func resolveSpanTab(dst []byte, out []uint16, tab []byte) int {
	n := len(out)
	i := 0
	for i < n {
		for i+8 <= n {
			v0, v1, v2, v3 := out[i], out[i+1], out[i+2], out[i+3]
			v4, v5, v6, v7 := out[i+4], out[i+5], out[i+6], out[i+7]
			if v0|v1|v2|v3|v4|v5|v6|v7 >= SymBase {
				break
			}
			// All-literal group: one packed store (values are < 256, so
			// each entry's low byte is the byte).
			u := uint64(v0) | uint64(v1)<<8 | uint64(v2)<<16 | uint64(v3)<<24 |
				uint64(v4)<<32 | uint64(v5)<<40 | uint64(v6)<<48 | uint64(v7)<<56
			binary.LittleEndian.PutUint64(dst[i:i+8], u)
			i += 8
		}
		if i >= n {
			break
		}
		end := i + 4096
		if end > n {
			end = n
		}
		o := out[i:end]
		d := dst[i:end]
		d = d[:len(o)] // one explicit bound so the loop stays check-free
		for j, v := range o {
			if int(v) >= len(tab) {
				return i + j
			}
			d[j] = tab[v]
		}
		i = end
	}
	return -1
}

// resolveSpanScalar is the table-free kernel for small inputs (window
// resolves): packed mode through literal runs, scalar 256-entry blocks
// inside symbolic regions, returning to packed mode after a
// symbol-free block.
func resolveSpanScalar(dst []byte, out []uint16, ctx []byte) int {
	n := len(out)
	i := 0
	for i < n {
		for i+8 <= n {
			v0, v1, v2, v3 := out[i], out[i+1], out[i+2], out[i+3]
			v4, v5, v6, v7 := out[i+4], out[i+5], out[i+6], out[i+7]
			if v0|v1|v2|v3|v4|v5|v6|v7 >= SymBase {
				break
			}
			u := uint64(v0) | uint64(v1)<<8 | uint64(v2)<<16 | uint64(v3)<<24 |
				uint64(v4)<<32 | uint64(v5)<<40 | uint64(v6)<<48 | uint64(v7)<<56
			binary.LittleEndian.PutUint64(dst[i:i+8], u)
			i += 8
		}
		if i >= n {
			break
		}
		for i < n {
			end := i + 256
			if end > n {
				end = n
			}
			o := out[i:end]
			d := dst[i:end]
			d = d[:len(o)]
			syms := 0
			for j, v := range o {
				if v < SymBase {
					d[j] = byte(v)
					continue
				}
				k := int(v) - SymBase
				if k >= len(ctx) {
					return i + j
				}
				d[j] = ctx[k]
				syms++
			}
			i = end
			if syms == 0 {
				break // clean block: the symbolic run has ended
			}
		}
	}
	return -1
}

// Narrow renders a symbolic stream as bytes with every unresolved
// symbol shown as UndeterminedByte ('?'): the representation used by
// the paper's figures and the FASTQ heuristic parser.
func Narrow(out []uint16) []byte {
	dst := make([]byte, len(out))
	for i, v := range out {
		if v < SymBase {
			dst[i] = byte(v)
		} else {
			dst[i] = UndeterminedByte
		}
	}
	return dst
}

// CountUndetermined returns the number of symbolic entries in out.
func CountUndetermined(out []uint16) int {
	n := 0
	for _, v := range out {
		if v >= SymBase {
			n++
		}
	}
	return n
}

// UndeterminedPerWindow partitions out into consecutive non-overlapping
// windows of size w and returns the fraction of undetermined entries
// in each (the y-axis of Figure 2). A trailing partial window is
// included when at least half full.
func UndeterminedPerWindow(out []uint16, w int) []float64 {
	if w <= 0 {
		return nil
	}
	var fracs []float64
	for start := 0; start < len(out); start += w {
		end := start + w
		if end > len(out) {
			if len(out)-start < w/2 {
				break
			}
			end = len(out)
		}
		u := CountUndetermined(out[start:end])
		fracs = append(fracs, float64(u)/float64(end-start))
	}
	return fracs
}
