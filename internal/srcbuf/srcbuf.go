// Package srcbuf provides a sliding byte window over an io.Reader.
//
// A background reader goroutine issues fixed-capacity reads against the
// source and hands the segments over a bounded channel, so source I/O
// overlaps with whatever the consumer does with the window and the
// channel capacity bounds how far the reader may run ahead
// (back-pressure). The consumer side — Fill, Peek, ReadByte, Discard —
// is a plain single-goroutine sliding window: bytes enter at the tail,
// are consumed from the head, and the head's absolute offset within
// the source stream is tracked so callers can address content by
// stream position even though only a bounded slice of it is resident.
//
// This is the memory-bounding piece of the streaming decompression
// pipeline: peak residency is O(high-water window) regardless of how
// large the source stream is.
//
// Readers on other goroutines see the window through Pin: while a pin
// on the backing array is outstanding, the consumer never writes to it
// in place (no compaction, no appends over a pinned length), so a
// pinned snapshot stays valid however far the window slides.
//
// A source already in memory gets a resident window (NewResident): the
// caller's slice itself, with no reader goroutine, pinned for good.
package srcbuf

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
)

// Defaults for New when the caller passes zero values.
const (
	DefaultReadSize = 512 << 10
	DefaultPrefetch = 2
)

// compactThreshold is how much dead prefix Discard tolerates before
// sliding the live window back to the start of the buffer.
const compactThreshold = 64 << 10

// ErrClosed is returned by Fill/Peek/ReadByte after Close.
var ErrClosed = errors.New("srcbuf: window closed")

type segment struct {
	data []byte
	err  error // non-nil on the source's terminal segment
}

// Window is a sliding window over an io.Reader. The consumer-facing
// methods are not safe for concurrent use; MaxBuffered and Close may be
// called from any goroutine.
type Window struct {
	segs      chan segment
	spent     chan []byte // segment buffers copied into buf, for the reader to reuse; one slot per segment in flight
	cancel    chan struct{}
	closeOnce sync.Once

	buf  []byte // buf[off:] is the live window
	off  int
	base int64 // absolute source offset of buf[off]
	eof  bool  // no further segments will arrive
	err  error // terminal source error (io.EOF is not recorded)

	// pins counts outstanding Pin snapshots of buf's backing array; the
	// spare array (a previous backing array) is reused once its own
	// count drops to zero.
	pins      *atomic.Int32
	spare     []byte
	sparePins *atomic.Int32

	maxBuf atomic.Int64
}

// New starts a reader goroutine over r issuing reads of up to readSize
// bytes, at most prefetch segments ahead of consumption. Zero values
// select DefaultReadSize / DefaultPrefetch.
func New(r io.Reader, readSize, prefetch int) *Window {
	if readSize <= 0 {
		readSize = DefaultReadSize
	}
	if prefetch < 1 {
		prefetch = DefaultPrefetch
	}
	w := &Window{
		segs:   make(chan segment, prefetch),
		spent:  make(chan []byte, prefetch+1),
		cancel: make(chan struct{}),
		pins:   new(atomic.Int32),
	}
	go w.read(r, readSize)
	return w
}

// NewResident returns a window over b, a whole source already in
// memory. It starts no reader goroutine and copies nothing, and it is
// pinned for good, so it never compacts, appends to or recycles the
// caller's bytes: Discard only moves the head, and every Pin is b
// itself.
func NewResident(b []byte) *Window {
	w := &Window{buf: b[:len(b):len(b)], eof: true, cancel: make(chan struct{}), pins: new(atomic.Int32)}
	w.pins.Store(1)
	w.maxBuf.Store(int64(len(b)))
	return w
}

// read is the source goroutine: it pulls segments from r until error,
// EOF, or cancellation.
func (w *Window) read(r io.Reader, readSize int) {
	defer close(w.segs)
	for {
		var buf []byte
		select {
		case buf = <-w.spent:
		default:
			if buf = take(spareSegs, readSize); buf == nil {
				buf = make([]byte, readSize)
			}
		}
		buf = buf[:readSize]
		n, err := r.Read(buf)
		if n == 0 && err == nil {
			continue
		}
		seg := segment{data: buf[:n], err: err}
		select {
		case w.segs <- seg:
		case <-w.cancel:
			keep(spareSegs, buf)
			return
		}
		if err != nil {
			return
		}
	}
}

// fillOne blocks for one more segment (or EOF/cancel); Fill observes
// EOF lazily, so a Fill satisfied exactly by the stream's last byte
// leaves EOF() false until the next fill attempt.
func (w *Window) fillOne() error {
	select {
	case seg, ok := <-w.segs:
		if !ok {
			w.eof = true
			return nil
		}
		if len(seg.data) > 0 {
			if len(w.buf)+len(seg.data) > cap(w.buf) {
				w.relocate(len(seg.data))
			}
			w.buf = append(w.buf, seg.data...)
			select { // the reader may fill it again
			case w.spent <- seg.data[:cap(seg.data)]:
			default:
			}
			if n := int64(len(w.buf) - w.off); n > w.maxBuf.Load() {
				w.maxBuf.Store(n)
			}
		}
		if seg.err != nil {
			w.eof = true
			if seg.err != io.EOF {
				w.err = seg.err
			}
		}
		return nil
	case <-w.cancel:
		return ErrClosed
	}
}

// Fill blocks until at least n unconsumed bytes are buffered. When the
// source ends first, Fill returns the source's terminal error, or nil
// for a clean EOF (callers distinguish short data via Len).
func (w *Window) Fill(n int) error {
	for w.Len() < n && !w.eof {
		if err := w.fillOne(); err != nil {
			return err
		}
	}
	if w.Len() >= n {
		return nil
	}
	return w.err
}

// Bytes returns the live window. The slice is valid until the next
// Fill/Grow/Discard/ReadByte call.
func (w *Window) Bytes() []byte { return w.buf[w.off:] }

// Len returns the number of unconsumed bytes currently buffered.
func (w *Window) Len() int { return len(w.buf) - w.off }

// Base returns the absolute source offset of Bytes()[0].
func (w *Window) Base() int64 { return w.base }

// EOF reports whether the source is exhausted (every byte it will ever
// produce is either in the window or already consumed).
func (w *Window) EOF() bool { return w.eof }

// Err returns the source's terminal error, if any (never io.EOF).
func (w *Window) Err() error { return w.err }

// Discard consumes n bytes from the head of the window. It compacts
// the live bytes to the front of the buffer in place only while no
// snapshot of the buffer is pinned; otherwise the dead prefix is
// dropped when the next fill needs room (relocate).
func (w *Window) Discard(n int) {
	if n > w.Len() {
		n = w.Len()
	}
	w.off += n
	w.base += int64(n)
	if w.off >= compactThreshold && w.pins.Load() == 0 {
		w.buf = w.buf[:copy(w.buf, w.buf[w.off:])]
		w.off = 0
	}
}

// relocate makes room for n more bytes by moving the live window to the
// front of a backing array: the current one when nothing pins it and it
// is large enough, else the spare (a previous array nothing pins any
// more), else a fresh one. The array it leaves becomes the spare, so a
// steady stream of pinned snapshots alternates between two arrays.
func (w *Window) relocate(n int) {
	live := w.buf[w.off:]
	need := len(live) + n
	if w.pins.Load() == 0 && cap(w.buf) >= need {
		w.buf = w.buf[:copy(w.buf, live)]
		w.off = 0
		return
	}
	buf, pins := w.spare, w.sparePins
	if pins == nil || pins.Load() != 0 || cap(buf) < need {
		if pins != nil && pins.Load() == 0 {
			keep(spareArrays, buf) // too small here, maybe not for the next window
		}
		buf, pins = takeArray(need), new(atomic.Int32)
	}
	w.spare, w.sparePins = w.buf, w.pins
	w.buf, w.pins, w.off = append(buf[:0], live...), pins, 0
}

// spareArrays keeps the backing arrays of finished windows (Recycle)
// for the next window to grow into, so a stream of short-lived windows
// stops allocating its buffer from scratch each time. Two slots hold
// one window's pair of arrays. spareSegs does the same for the reader
// goroutine's segment buffers.
var (
	spareArrays = make(chan []byte, 2)
	spareSegs   = make(chan []byte, DefaultPrefetch+1)
)

// takeArray returns an empty array with room for at least n bytes: a
// kept one or a new one of twice n, so a growing window relocates
// O(log) times.
func takeArray(n int) []byte {
	if b := take(spareArrays, n); b != nil {
		return b[:0]
	}
	return make([]byte, 0, 2*n)
}

// take returns a buffer kept in spares with room for at least n bytes,
// dropping those too small on the way, or nil.
func take(spares chan []byte, n int) []byte {
	for {
		select {
		case b := <-spares:
			if cap(b) >= n {
				return b
			}
		default:
			return nil
		}
	}
}

func keep(spares chan []byte, b []byte) {
	if cap(b) > 0 {
		select {
		case spares <- b[:0]:
		default:
		}
	}
}

// Recycle hands the window's buffers to the next window once the
// consumer is done with it. Arrays a snapshot still pins are left to
// the garbage collector. The window must not be used afterwards, except
// for MaxBuffered and Close.
func (w *Window) Recycle() {
	if w.pins.Load() == 0 {
		keep(spareArrays, w.buf)
	}
	if w.sparePins != nil && w.sparePins.Load() == 0 {
		keep(spareArrays, w.spare)
	}
	w.buf, w.spare, w.off = nil, nil, 0
	for {
		select {
		case b := <-w.spent:
			keep(spareSegs, b)
		default:
			return
		}
	}
}

// Pin returns the live window for a reader on another goroutine, with
// the absolute source offset of its first byte. The snapshot stays
// valid, and its bytes unchanged, until unpin is called, whatever the
// consumer fills or discards meanwhile. unpin is safe from any
// goroutine and must be called exactly once.
func (w *Window) Pin() (data []byte, base int64, unpin func()) {
	pins := w.pins
	pins.Add(1)
	return w.buf[w.off:len(w.buf):len(w.buf)], w.base, func() { pins.Add(-1) }
}

// DiscardTo consumes bytes so that Base() == abs. Positions at or
// before the current base are a no-op.
func (w *Window) DiscardTo(abs int64) {
	if d := abs - w.base; d > 0 {
		w.Discard(int(d))
	}
}

// ReadByte consumes one byte, filling as needed. It returns io.EOF at
// a clean source end, or the source's terminal error.
func (w *Window) ReadByte() (byte, error) {
	if err := w.Fill(1); err != nil {
		return 0, err
	}
	if w.Len() == 0 {
		return 0, io.EOF
	}
	b := w.buf[w.off]
	w.Discard(1)
	return b, nil
}

// Peek returns the next n bytes without consuming them, filling as
// needed. It returns io.ErrUnexpectedEOF (or the source's terminal
// error) when fewer than n bytes remain in the stream.
func (w *Window) Peek(n int) ([]byte, error) {
	if err := w.Fill(n); err != nil {
		return nil, err
	}
	if w.Len() < n {
		if w.err != nil {
			return nil, w.err
		}
		return nil, io.ErrUnexpectedEOF
	}
	return w.buf[w.off : w.off+n], nil
}

// MaxBuffered returns the high-water mark of buffered-but-unconsumed
// bytes, the window's contribution to peak memory. Safe from any
// goroutine.
func (w *Window) MaxBuffered() int64 { return w.maxBuf.Load() }

// Close stops the reader goroutine and unblocks any Fill in progress.
// It is safe to call multiple times and from any goroutine. The source
// reader is not closed; a read already in flight finishes in the
// background and is dropped.
func (w *Window) Close() {
	w.closeOnce.Do(func() { close(w.cancel) })
}
