// Package core implements pugz: exact two-pass parallel decompression
// of a DEFLATE stream (Section VI-C and Figure 3 of the paper).
//
// The compressed payload is split into n roughly equal chunks. For
// each chunk boundary a true block start is located by brute-force
// bit scanning (internal/blockfind). Pass 1 decompresses every chunk
// concurrently; chunks after the first start from a fully undetermined
// 32 KiB context made of unique symbols (internal/tracked), so their
// output is exact up to a per-chunk substitution of at most 32768
// unknown bytes. Pass 2 resolves those unknowns: a cheap sequential
// sweep propagates each chunk's final window to its successor, then
// every chunk translates its symbolic output in parallel.
//
// The result is bit-exact with sequential gunzip output, with no
// heuristics and no assumptions about the file content beyond the
// stringent text checks used for block detection.
//
// Both entry points — whole-file (DecompressPayload) and bounded-memory
// streaming (Pipeline) — run on one shared chunk decoder, decodeSegment
// in engine.go; they differ only in how they frame segments and carry
// context windows between them.
package core

import (
	"time"

	"repro/internal/flate"
)

// Options configures the engine.
type Options struct {
	// Threads is the number of parallel chunks (and goroutines) to
	// use. Values < 1 mean 1. The effective number may be lower for
	// small inputs.
	Threads int
	// MinChunk is the minimum compressed bytes per chunk; inputs are
	// never split finer than this. Default 128 KiB.
	MinChunk int
	// Confirmations overrides the block-detection confirmation count.
	Confirmations int
	// ValidByte overrides the text-byte predicate used during block
	// detection (nil = printable ASCII + \t\n\r).
	ValidByte func(byte) bool
	// Sequential executes the per-chunk work of every phase one chunk
	// at a time instead of concurrently. Output is identical; the
	// point is measurement: on a host with fewer cores than chunks,
	// concurrent goroutines contend and their wall times say nothing
	// about per-chunk cost. Sequential mode gives each chunk the whole
	// machine, so ChunkMetrics are true isolated costs and
	// Metrics.SimulatedMakespan models a machine with one free core
	// per chunk (how Figure 5's scaling shape is reproduced here).
	Sequential bool
	// SizeHint is the expected output size (a gzip trailer's ISIZE).
	// A one-chunk decode presizes its buffer with it; it is capacity
	// only and never changes the bytes.
	SizeHint int
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

// Metrics aggregates a run.
type Metrics struct {
	Chunks       []ChunkMetrics
	SyncWall     time.Duration // locating chunk block starts
	Pass1Wall    time.Duration
	Pass2SeqWall time.Duration // sequential window propagation
	Pass2ParWall time.Duration // parallel translation
	TotalWall    time.Duration
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
// fewer physical cores than the paper's 24 (see EXPERIMENTS.md).
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
// framing) in parallel and returns the output plus run metrics. It is
// the whole-file framing of the shared segment engine: the entire
// payload is one segment starting at bit 0 with no preceding context.
func DecompressPayload(payload []byte, o Options) ([]byte, *Metrics, error) {
	t0 := time.Now()
	metrics := &Metrics{}

	n := o.Threads
	minChunk := o.MinChunk
	if minChunk <= 0 {
		minChunk = defaultMinChunk
	}
	if maxN := len(payload) / minChunk; n > maxN {
		n = maxN
	}
	if n <= 1 {
		out, endBit, err := flate.DecompressSized(payload, o.SizeHint)
		if err != nil {
			return nil, nil, err
		}
		m := ChunkMetrics{OutBytes: int64(len(out)), Pass1: time.Since(t0), EndBit: endBit}
		metrics.Chunks = []ChunkMetrics{m}
		metrics.Pass1Wall = m.Pass1
		metrics.TotalWall = time.Since(t0)
		metrics.PayloadEndBit = endBit
		return out, metrics, nil
	}

	seg, err := decodeSegment(payload, 0, int64(len(payload)), nil, o, segOpts{})
	if err != nil {
		return nil, nil, err
	}
	defer seg.release()
	if err := seg.translate(o.Sequential); err != nil {
		return nil, nil, err
	}
	for _, c := range seg.chunks {
		metrics.Chunks = append(metrics.Chunks, c.m)
	}
	metrics.SyncWall = seg.syncWall
	metrics.Pass1Wall = seg.pass1Wall
	metrics.Pass2SeqWall = seg.pass2SeqWall
	metrics.Pass2ParWall = seg.pass2ParWall
	metrics.PayloadEndBit = seg.endBit
	metrics.TotalWall = time.Since(t0)
	return seg.out, metrics, nil
}
