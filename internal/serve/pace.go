package serve

import (
	"io"
	"sync"
	"time"
)

// Bulk egress pacing of bodies served from cached spans.
//
// A cached span costs a memcpy to serve, so an unpaced scan moves bytes
// as fast as the loopback and the scheduler happen to allow: GB/s, and
// differing from one run to the next by more than an uncached daemon's
// whole throughput. The cache exists for the latency of small ranges
// and for the CPU a repeated decode would burn, not to outrun the
// decoders on bulk transfers, so the two are treated apart: the first
// bulkAfterBytes of a body leave at once, the rest is bulk and draws, in
// bulkChunkBytes pieces, on one token bucket shared by every connection.
// The bucket refills at bulkBytesPerSecPerCPU per processor — about what
// one core inflates, so cached bulk leaves no slower than the box could
// have decoded it — and holds bulkBucketBytes: a few milliseconds of
// refill, so that writers stalled that long (a span fill, a late wake-up)
// catch up and the rate holds over a second, not just between stalls.
// Bodies decoded on the way out (no index yet, no room for a span) are
// paced by the decoder and bypass the bucket.
const (
	bulkAfterBytes        = 256 << 10
	bulkChunkBytes        = 128 << 10
	bulkBucketBytes       = 1 << 20
	bulkBytesPerSecPerCPU = 96 << 20
)

// pacer is a token bucket, kept as the time its last reserved byte is
// due: reserving moves due forward, and due may lag the clock by at most
// burst, the time a full bucket takes to refill.
type pacer struct {
	perSec int64
	burst  time.Duration

	mu  sync.Mutex
	due time.Time // guarded by mu
}

func newPacer(perSec, burstBytes int64) *pacer {
	return &pacer{perSec: perSec, burst: time.Duration(burstBytes * int64(time.Second) / perSec)}
}

// reserve takes n bytes from the bucket and returns how long the caller
// must wait before sending them; zero or less means now.
func (p *pacer) reserve(n int, now time.Time) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if floor := now.Add(-p.burst); p.due.Before(floor) {
		p.due = floor
	}
	p.due = p.due.Add(time.Duration(int64(n) * int64(time.Second) / p.perSec))
	return p.due.Sub(now)
}

// bulkWriter writes one body: the first bulkAfterBytes go straight to
// w, every later chunk waits for its share of the bucket.
type bulkWriter struct {
	w      io.Writer
	bucket *pacer
	sent   int64
}

func (b *bulkWriter) Write(p []byte) (int, error) {
	var done int
	for len(p) > 0 {
		lim := int64(bulkChunkBytes)
		if b.sent < bulkAfterBytes {
			lim = bulkAfterBytes - b.sent
		}
		c := p[:min(int64(len(p)), lim)]
		if b.sent >= bulkAfterBytes {
			time.Sleep(b.bucket.reserve(len(c), time.Now()))
		}
		n, err := b.w.Write(c)
		done += n
		b.sent += int64(n)
		if err != nil {
			return done, err
		}
		p = p[len(c):]
	}
	return done, nil
}
