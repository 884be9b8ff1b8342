// Package pugz is a pure-Go reproduction of the system described in
// "Parallel decompression of gzip-compressed files and random access
// to DNA sequences" (Kerbiriou & Chikhi, 2019): exact multi-threaded
// decompression of arbitrary gzip-compressed text files, plus random
// access to DNA sequences inside gzip-compressed FASTQ files.
//
// There are two decompression APIs over one parallel engine: a chunk
// scheduler that keeps at most Threads compressed spans in flight,
// workers syncing each to a block start and decoding it with a
// symbolic context while one resolver stitches, translates and hands
// on each chunk in order as soon as it is resolved. Both walk a file's
// members with the same loop (header, payload, trailer, optional
// CRC-32 and ISIZE checks):
//
//   - NewReader is the streaming API: it wraps any io.Reader — a
//     file, a pipe, a socket — in an io.ReadCloser whose output is
//     byte-identical to gunzip's across all members. A reader
//     goroutine fills a bounded compressed window and each chunk is
//     emitted with back-pressure, so peak memory is O(batch + its
//     expansion) regardless of stream size — the paper's Section VIII
//     memory limitation, lifted in both directions.
//
//     r, _ := pugz.NewReader(src, pugz.StreamOptions{Threads: 8})
//     defer r.Close()
//     io.Copy(dst, r)
//
//   - Decompress is the slice API: exact two-pass parallel
//     decompression of a whole in-memory gzip file (the pugz
//     algorithm, Section VI-C), each member cut into up to Threads
//     spans and every member decoded into one output buffer, returning
//     per-chunk phase statistics for the paper's experiments.
//     GunzipSequential is Decompress at one thread with checksums on.
//
// The remaining entry points mirror the paper's other capabilities:
// FindBlock / ScanBlocks locate DEFLATE block boundaries, either by
// brute-force bit scanning from an arbitrary compressed offset
// (Section VI-A) or exhaustively during a sequential decode, and
// RandomAccess decompresses from an arbitrary compressed offset with
// an undetermined context and extracts DNA sequences from the
// partially resolved text (Sections IV and VI-B, the fqgz prototype).
//
// The package is the decompressor only. The compressor used to build
// the experiments' corpora, the BGZF baseline and the guesser of
// undetermined characters live in package repro/baseline.
package pugz

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/gzipx"
)

// Options configures parallel decompression.
type Options struct {
	// Threads is the number of spans each member's payload is cut into
	// (values < 1 select 1); at most min(Threads, GOMAXPROCS)
	// goroutines decode at once.
	Threads int
	// VerifyChecksums enables CRC-32 and ISIZE verification of every
	// gzip member. The paper's pugz skips checksums (Section VIII);
	// they are off by default to match, but available.
	VerifyChecksums bool
	// MinChunk is the minimum compressed bytes per chunk (default
	// 128 KiB). Lower it to exercise parallelism on small inputs.
	MinChunk int
	// Sequential runs each chunk's sync and pass 1 to completion, one
	// at a time, instead of concurrently (output identical). Use it for
	// measurement on hosts with fewer cores than chunks: per-chunk Stats
	// then reflect isolated cost, so a makespan modelled from them means
	// something (cmd/experiments -run fig5 does).
	Sequential bool
}

// ChunkStats describes one chunk of a parallel run. StartBit and
// EndBit are bit offsets in the input (the gzip file, for Decompress).
type ChunkStats struct {
	StartBit          int64
	EndBit            int64
	OutBytes          int64
	SymbolsUnresolved int64
	Find              time.Duration
	Pass1             time.Duration
	Pass2             time.Duration
}

// Stats reports how a Decompress call spent its time.
type Stats struct {
	Chunks       []ChunkStats
	SyncWall     time.Duration
	Pass1Wall    time.Duration
	Pass2SeqWall time.Duration
	Pass2ParWall time.Duration
	TotalWall    time.Duration
	// Members is the number of gzip members processed.
	Members int
}

func (s *Stats) addMember(m *core.Metrics) {
	for _, c := range m.Chunks {
		s.Chunks = append(s.Chunks, ChunkStats(c))
	}
	s.SyncWall += m.SyncWall
	s.Pass1Wall += m.Pass1Wall
	s.Pass2SeqWall += m.Pass2SeqWall
	s.Pass2ParWall += m.Pass2ParWall
	s.TotalWall += m.TotalWall
	s.Members++
}

// ErrChecksum is returned when a member's CRC-32 or ISIZE does not
// match its decompressed content: by GunzipSequential always, and by
// Decompress and Reader when VerifyChecksums is set. It is wrapped with
// the field that failed (": CRC-32" or ": ISIZE").
var ErrChecksum = errors.New("pugz: checksum mismatch")

// Decompress decompresses a complete gzip file (all members) in
// parallel and returns the concatenated output with run statistics.
// The output is byte-identical to gunzip's. Every member decodes into
// one output buffer: presized from the last trailer's ISIZE (a hint
// only: a wrong or forged one changes no byte) and grown from the
// expansion observed so far. The result is that buffer, not a copy of
// it; a file with no output bytes yields nil.
func Decompress(gz []byte, o Options) ([]byte, *Stats, error) {
	out := make([]byte, 0, gzipx.SizeHint(gz))
	p := core.NewPipelineBytes(gz, &out, core.PipelineOptions{
		Threads:    o.Threads,
		MinChunk:   o.MinChunk,
		Sequential: o.Sequential,
	})
	stats := &Stats{}
	w := &memberWalk{p: p, verify: o.VerifyChecksums, onMember: stats.addMember}
	extent, more, err := w.header() // a zero-byte file is zero members
	if more {
		err = w.walk(extent)
	}
	if err != nil {
		return nil, nil, err
	}
	if len(out) == 0 {
		out = nil
	}
	return out, stats, nil
}

// GunzipSequential is the exact single-threaded baseline (the "gunzip
// role" in Table II): Decompress at one thread with checksums on, so
// full header parsing, multi-member support, and every member's CRC-32
// and ISIZE checked (a mismatch is ErrChecksum).
func GunzipSequential(gz []byte) ([]byte, error) {
	out, _, err := Decompress(gz, Options{Threads: 1, VerifyChecksums: true})
	return out, err
}

// CompressionClass mirrors the UNIX file command's gzip level report,
// derived from the XFL header byte: "lowest" (gzip -1), "highest"
// (gzip -9), or "normal" (anything between). Table I partitions
// datasets with exactly this rule.
type CompressionClass = gzipx.CompressionClass

// The three classes.
const (
	ClassNormal  = gzipx.ClassNormal
	ClassLowest  = gzipx.ClassLowest
	ClassHighest = gzipx.ClassHighest
)

// Classify reports the compression class of a gzip file from its
// header.
func Classify(gz []byte) (CompressionClass, error) {
	m, err := gzipx.ParseHeader(gz)
	if err != nil {
		return ClassNormal, err
	}
	return gzipx.ClassifyXFL(m.XFL), nil
}
