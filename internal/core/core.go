// Package core implements pugz: exact two-pass parallel decompression
// of a DEFLATE stream (Section VI-C and Figure 3 of the paper).
//
// The compressed stream is cut into nominal spans. For each span a
// true block start is located by brute-force bit scanning, bounded to
// the span (internal/blockfind), and pass 1 decompresses from it with
// a fully undetermined 32 KiB context made of unique symbols
// (internal/tracked), so its output is exact up to a substitution of
// at most 32768 unknown bytes. Pass 1 needs no context, so workers run
// it on later spans while one in-order resolver finishes earlier ones:
// it stitches each chunk to its predecessor, propagates the resolved
// window into it (pass 2a) and translates its symbols (pass 2b). A
// span whose context is already known — the member start, or a span
// the resolver reaches before its sync has confirmed — is decoded
// exactly instead, with no symbols at all.
//
// The result is bit-exact with sequential gunzip output, with no
// heuristics and no assumptions about the file content beyond the
// stringent text checks used for block detection; a start that fails
// to stitch costs an exact re-decode, not the call.
//
// Every entry point is a Pipeline running members on the one chunk
// scheduler in sched.go: over a sliding window with at most Threads
// spans in flight (NewPipeline, bounded-memory streaming), or over a
// caller's slice with each member's extent cut into spans
// (NewPipelineBytes; DecompressPayload is one member of it).
package core

import "time"

// Options configures the engine.
type Options struct {
	// Threads is the number of spans the payload is cut into and the
	// bound on spans in flight. Values < 1 mean 1; small inputs use
	// fewer. At most min(Threads, GOMAXPROCS) goroutines decode at once,
	// the resolver included.
	Threads int
	// MinChunk is the minimum compressed bytes per chunk; inputs are
	// never split finer than this. Default 128 KiB.
	MinChunk int
	// Confirmations overrides the block-detection confirmation count.
	Confirmations int
	// ValidByte overrides the text-byte predicate used during block
	// detection (nil = printable ASCII + \t\n\r).
	ValidByte func(byte) bool
	// Sequential runs every span's sync and pass 1 to completion, one
	// at a time on the resolver's goroutine, and never takes a span
	// over. Output is identical; the point is measurement: on a host
	// with fewer cores than chunks, concurrent goroutines contend and
	// their wall times say nothing about per-chunk cost. Sequential mode gives each chunk the whole
	// machine, so ChunkMetrics are true isolated costs and
	// Metrics.SimulatedMakespan models a machine with one free core
	// per chunk (how Figure 5's scaling shape is reproduced here).
	Sequential bool
}

const defaultMinChunk = 128 << 10

// ChunkMetrics records per-chunk accounting, the raw material for the
// Figure 5 scaling analysis.
type ChunkMetrics struct {
	StartBit int64
	EndBit   int64
	OutBytes int64
	// SymbolsUnresolved counts symbolic entries remaining in the
	// chunk's pass-1 output (0 for chunk 0).
	SymbolsUnresolved int64
	Find              time.Duration
	Pass1             time.Duration
	Pass2             time.Duration
}

// Metrics aggregates a run. The phase durations are summed over chunks:
// in a concurrent run the phases of different chunks overlap, so they
// add up to more than TotalWall; in a Sequential run they do not.
type Metrics struct {
	Chunks       []ChunkMetrics
	SyncWall     time.Duration // locating chunk block starts
	Pass1Wall    time.Duration
	Pass2SeqWall time.Duration // window propagation (the resolver)
	Pass2ParWall time.Duration // translation
	TotalWall    time.Duration
	// Work counts the sync offsets tried, the bytes decoded and the
	// resolver's take-overs.
	Work Work
	// PayloadEndBit is the bit offset just past the final block: the
	// gzip trailer begins at the next byte boundary.
	PayloadEndBit int64
}

// WorkSeconds returns the total CPU work across chunks (find + pass1 +
// pass2), which on a single-core host approximates the wall time and
// on a multi-core host approximates threads x wall.
func (m *Metrics) WorkSeconds() float64 {
	var d time.Duration
	for _, c := range m.Chunks {
		d += c.Find + c.Pass1 + c.Pass2
	}
	return d.Seconds()
}

// SimulatedMakespan models the wall-clock a machine with as many free
// cores as chunks would achieve: the slowest (find+pass1) chunk, plus
// the sequential window propagation, plus the slowest translation.
// It lets the scaling *shape* of Figure 5 be reproduced on hosts with
// fewer physical cores than the paper's 24 (cmd/experiments -run fig5).
func (m *Metrics) SimulatedMakespan() time.Duration {
	var maxP1, maxP2 time.Duration
	for _, c := range m.Chunks {
		if p := c.Find + c.Pass1; p > maxP1 {
			maxP1 = p
		}
		if c.Pass2 > maxP2 {
			maxP2 = c.Pass2
		}
	}
	return maxP1 + m.Pass2SeqWall + maxP2
}

// DecompressPayload decompresses a raw DEFLATE stream (no gzip
// framing) in parallel and returns the output plus run metrics: it is a
// resident pipeline (NewPipelineBytes) and one member run, assembling
// the output in one buffer.
func DecompressPayload(payload []byte, o Options) ([]byte, *Metrics, error) {
	var out []byte
	p := NewPipelineBytes(payload, &out, PipelineOptions{
		Threads: o.Threads, MinChunk: o.MinChunk, Confirmations: o.Confirmations,
		ValidByte: o.ValidByte, Sequential: o.Sequential,
	})
	res, err := p.RunMemberOpts(MemberRun{})
	if err != nil {
		return nil, nil, err
	}
	return out, res.Metrics, nil
}
