package core

// outBufs recycles the byte buffers chunks decode or translate into.
// The resolver takes one per exact or translated chunk; the chunk's
// consumer hands it back once done with it (RecycleOutput), so
// steady-state streaming stops allocating a multi-megabyte buffer per
// chunk. It is a small bounded free list rather than a sync.Pool: a
// buffer is put back by the consumer's goroutine and taken by the
// resolver's, and a sync.Pool keeps a lone item in its putter's
// per-processor slot, out of another processor's reach.
var outBufs = make(chan []byte, maxOutBufs)

const (
	// maxOutBufs bounds the buffers kept between chunks: the one being
	// filled, the ones queued for the consumer and the one it reads.
	maxOutBufs = 4
	// maxOutBufBytes is the largest buffer kept; a chunk that expanded
	// further leaves its buffer to the garbage collector.
	maxOutBufBytes = 64 << 20
)

// getOutBuf returns an empty buffer with room for at least n bytes.
// Kept buffers too small for n are dropped on the way; a new one gets a
// quarter of headroom, so chunks of similar size keep reusing it.
func getOutBuf(n int) []byte {
	for {
		select {
		case b := <-outBufs:
			if cap(b) >= n {
				return b[:0]
			}
		default:
			return make([]byte, 0, n+n/4)
		}
	}
}

func putOutBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxOutBufBytes {
		return
	}
	select {
	case outBufs <- b[:0]:
	default:
	}
}

// RecycleOutput hands a chunk an Emit callback received back to the
// scheduler's buffer pool. The caller must not touch the slice (or any
// slice of it) afterwards.
func RecycleOutput(b []byte) { putOutBuf(b) }
