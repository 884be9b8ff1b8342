package flate

import "sync"

// Sliding is the window sink for decodes whose output is measured and
// windowed but never kept: a running count plus a buffer holding at
// least the trailing WindowSize cells, O(WindowSize) memory however
// long the decode runs. The buffer starts with WindowSize cells of
// seeded history (a known window over bytes, the U_j symbols over
// uint16) so mid-stream back-references resolve immediately; once it
// reaches slideAt cells the trailing WindowSize slide to the front.
// Back-references reach at most WindowSize cells behind the write
// position, so the retained tail always covers them.
type Sliding[E Cell] struct {
	// Buf is the sliding buffer. Callers seed it with exactly
	// WindowSize cells of history and capacity SlidingCap before
	// decoding; the sink then compacts it in place.
	Buf   []E
	total int64 // cells produced (excludes the seeded history)
	Control
}

const (
	// slideAt is the buffer length at which a Sliding sink compacts.
	// One extra window of slack amortises the copy to ~1 cell per
	// output cell while the buffer stays small enough to live in cache.
	slideAt = 2 * WindowSize
	// SlidingCap is the buffer capacity a Sliding sink needs: a full
	// buffer plus one maximal match.
	SlidingCap = slideAt + MaxMatch
)

// Len returns the number of cells decoded so far.
func (s *Sliding[E]) Len() int64 { return s.total }

// Window returns the trailing WindowSize cells: seeded history followed
// by output. The slice aliases the sink's buffer.
func (s *Sliding[E]) Window() []E { return s.Buf[len(s.Buf)-WindowSize:] }

// slide compacts the buffer so the next append of up to n cells fits
// without growing past slideAt.
func (s *Sliding[E]) slide(n int) {
	if len(s.Buf)+n <= slideAt {
		return
	}
	copy(s.Buf, s.Window())
	s.Buf = s.Buf[:WindowSize]
}

func (s *Sliding[E]) BlockStart(ev BlockEvent) error { return s.blockStart(ev, s.total) }

func (s *Sliding[E]) Literal(b byte) error {
	s.slide(1)
	s.Buf = append(s.Buf, E(b))
	s.total++
	return s.reached(s.total)
}

func (s *Sliding[E]) Match(length, dist int) error {
	s.slide(length)
	s.Buf = appendMatch(s.Buf, length, dist) // at least WindowSize cells are always retained
	s.total += int64(length)
	return s.reached(s.total)
}

// Stored implements StoredSink, one slide's worth of room at a time.
func (s *Sliding[E]) Stored(b []byte) error {
	if s.Limit > 0 {
		b = b[:min(int64(len(b)), s.Limit-s.total)]
	}
	for len(b) > 0 {
		n := min(len(b), slideAt-WindowSize)
		s.slide(n)
		s.Buf = appendBytes(s.Buf, b[:n])
		s.total += int64(n)
		b = b[n:]
	}
	return s.reached(s.total)
}

func (s *Sliding[E]) BlockEnd(nextBit int64) error {
	s.blockEnd(nextBit, s.total)
	return nil
}

// FastTokens implements FastTokenSink over the sliding window: the
// kernel runs between slide compactions, and the Limit budget is
// translated into a write bound so the decode stops on exactly the
// token the scalar loop would stop on.
func (s *Sliding[E]) FastTokens(fc *FastCtx) (int64, bool, error) {
	t0 := s.total
	for {
		fc.R.Refill()
		if fc.R.Bits() < fastMinBits {
			return s.total - t0, false, nil
		}
		s.slide(FastSlack)
		w0 := len(s.Buf)
		minSrc := 0
		if fc.Track {
			// The first produced cell sits at w0-total until a slide
			// drops it from the buffer.
			minSrc = max(w0-int(s.total), 0)
		}
		maxW := SlidingCap - FastSlack + 2
		if s.Limit > 0 {
			maxW = min(maxW, w0+int(s.Limit-s.total))
		}
		w, st := decodeFast(fc.R, fc.Lit, fc.Dist, s.Buf[:cap(s.Buf)], w0, maxW, minSrc)
		s.total += int64(w - w0)
		s.Buf = s.Buf[:w]
		switch {
		case s.Limit > 0 && s.total >= s.Limit:
			return s.total - t0, false, Stop
		case st != fastMore:
			return s.total - t0, st == fastEOB, nil
		}
	}
}

// TailSink is the exact Sliding sink. Skip-mode chunks whose initial
// context is already resolved decode through it, and an index build's
// exact pass uses its capture walk to snapshot the history window at
// checkpoint block boundaries as it decodes.
type TailSink struct {
	Sliding[byte]

	// Capture walk (CaptureEvery): snapshot at the first block boundary
	// at or past walkNext, then advance by walkSpacing. Captured windows
	// are freshly allocated WindowSize slices.
	walk        bool
	walkNext    int64
	walkSpacing int64
	captured    [][]byte
	walkOuts    []int64
	walkBits    []int64
}

var tailBufPool = sync.Pool{
	New: func() any { return make([]byte, 0, SlidingCap) },
}

// NewTailSink returns a TailSink seeded with ctx (len WindowSize, or
// nil for a zeroed window — callers decoding a stream's true start
// combine that with Decoder.SetTrackStart so pre-start references are
// still rejected). The buffer is pooled; hand it back with Release.
func NewTailSink(ctx []byte) *TailSink {
	buf := tailBufPool.Get().([]byte)
	if cap(buf) < SlidingCap {
		buf = make([]byte, 0, SlidingCap)
	}
	buf = buf[:WindowSize]
	if ctx != nil {
		copy(buf, ctx)
	} else {
		clear(buf)
	}
	return &TailSink{Sliding: Sliding[byte]{Buf: buf}}
}

// Release returns the sliding buffer to the pool. The sink must not be
// used afterwards; captured windows remain valid (they are private
// allocations).
func (s *TailSink) Release() {
	if cap(s.Buf) > 0 {
		tailBufPool.Put(s.Buf[:0]) //nolint:staticcheck
	}
	s.Buf = nil
}

// CaptureEvery arms the capture walk: a snapshot at the first block
// boundary at or past output offset from, then at the first boundary at
// least spacing output bytes past each previous snapshot — the zran
// checkpoint rule.
func (s *TailSink) CaptureEvery(from, spacing int64) {
	s.walk, s.walkNext, s.walkSpacing = true, from, spacing
}

// Captured returns the snapshots taken so far, in offset order.
func (s *TailSink) Captured() [][]byte { return s.captured }

// WalkMarks returns the output offsets and block start bits of the
// snapshots, parallel to Captured().
func (s *TailSink) WalkMarks() (outs, bits []int64) { return s.walkOuts, s.walkBits }

// WindowInto fills dst (len WindowSize) with the current history
// window: the trailing WindowSize bytes of context ++ output.
func (s *TailSink) WindowInto(dst []byte) { copy(dst, s.Window()) }

// BlockStart runs the StopBit test before any capture: a block at or
// past StopBit belongs to the next chunk, so nothing is snapshotted or
// marked for it.
func (s *TailSink) BlockStart(ev BlockEvent) error {
	if err := s.Sliding.BlockStart(ev); err != nil {
		return err
	}
	if s.walk && s.total >= s.walkNext {
		w := make([]byte, WindowSize)
		s.WindowInto(w)
		s.captured = append(s.captured, w)
		s.walkOuts = append(s.walkOuts, s.total)
		s.walkBits = append(s.walkBits, ev.StartBit)
		s.walkNext = s.total + s.walkSpacing
	}
	return nil
}
