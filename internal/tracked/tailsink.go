package tracked

import (
	"sync"

	"repro/internal/flate"
)

// TailSink is the skip-mode counterpart of Sink: a flate.Sliding over
// uint16 cells, seeded with the undetermined context, that keeps only
// a running output count plus the trailing WindowSize symbols — the
// one part of a skipped chunk's output that pass 2 ever touches (the
// window propagated to the successor, w_{i+1} = resolve(tail(D_i),
// w_i)). Memory per chunk is O(WindowSize) instead of O(chunk output),
// which is what makes deep seeks, Size() passes, and streaming index
// builds cheap on the memory side.
type TailSink struct{ flate.Sliding[uint16] }

// tailBufPool recycles the fixed-size sliding buffers of tail sinks.
// It is deliberately separate from symBufPool: tail buffers never
// grow, while full-decode buffers grow to a chunk's whole output —
// mixing them would hand a small tail buffer to a full decode and pay
// the complete append-growth chain again (and again) instead of
// reusing an already-grown buffer.
var tailBufPool = sync.Pool{
	New: func() any { return make([]uint16, 0, flate.SlidingCap) },
}

func putTailBuf(b []uint16) {
	if cap(b) == 0 {
		return
	}
	tailBufPool.Put(b[:0]) //nolint:staticcheck
}

// NewTailSink returns a TailSink with a fully undetermined initial
// context. Its buffer comes from the tail pool; hand it back via
// Release (or the owning Result's Release).
func NewTailSink() *TailSink {
	s := &TailSink{}
	s.Buf = seedSymbols(tailBufPool.Get().([]uint16))
	return s
}

// Release returns the sliding buffer to the tail pool. The sink (and
// any Tail slice taken from it) must not be used afterwards.
func (s *TailSink) Release() {
	putTailBuf(s.Buf)
	s.Buf = nil
}

// Tail returns the trailing min(Len, WindowSize) output entries — the
// exact slice ResolveWindowInto needs to propagate a context window
// past this chunk. The slice aliases the sink's pooled buffer.
func (s *TailSink) Tail() []uint16 {
	return s.Window()[WindowSize-min(s.Len(), WindowSize):]
}
