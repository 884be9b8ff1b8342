package pugz

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"

	"repro/internal/core"
	"repro/internal/gzindex"
	"repro/internal/gzipx"
)

// This file is the zran-style checkpoint Index (exact random access
// after one indexing pass, the paper's reference [11]) and its
// streaming construction path: the bounded-memory pipeline over any
// io.Reader, scheduled like a Reader — workers sync spans and decode
// them symbolically, the resolver chains their windows — with each due
// block boundary's 32 KiB window resolved from the symbols before it
// (or captured by the resolver's own tail-only decodes as they pass
// it). The whole-file BuildIndex is a thin wrapper over it, and pugz
// -mkindex streams through it, so index construction never slurps the
// compressed file.

// Index provides exact random access to a gzip file after one indexing
// pass (the zran approach of reference [11]).
type Index struct {
	inner      *gzindex.Index
	payloadOff int64
}

// BuildIndex decompresses the first member of gz once, checkpointing
// the decoder state every spacing output bytes (0 selects 1 MiB). It is
// the whole-file framing of the streaming construction path
// (NewIndexFromReader), and the result is byte-identical to the
// sequential zran build regardless of thread count.
func BuildIndex(gz []byte, spacing int64) (*Index, error) {
	return NewIndexFromReader(bytes.NewReader(gz), spacing, StreamOptions{
		Threads: runtime.GOMAXPROCS(0),
	})
}

// Size returns the decompressed size the index covers.
func (ix *Index) Size() int64 { return ix.inner.OutSize }

// Checkpoints returns the number of restart points.
func (ix *Index) Checkpoints() int { return len(ix.inner.Checkpoints) }

// spacing estimates the checkpoint interval in decompressed bytes —
// the cost of one checkpoint-to-offset inflate, used to decide when a
// forward-scanning cursor beats an indexed read.
func (ix *Index) spacing() int64 {
	n := len(ix.inner.Checkpoints)
	if n < 1 {
		n = 1
	}
	return ix.inner.OutSize/int64(n) + 1
}

// ErrIndexMismatch reports that an Index does not describe the gzip
// file it is being read against (a stale, damaged or hostile side-car):
// a checkpoint span failed to decode or did not end where the index
// says it does. Reads through an Index return gunzip's bytes or an
// error wrapping this one; test with errors.Is.
var ErrIndexMismatch = gzindex.ErrMismatch

// memberEnd is the compressed offset just past the indexed member:
// header, payload up to the index's end bit, and the 8-byte trailer.
func (ix *Index) memberEnd() int64 {
	end := ix.payloadOff + ix.inner.EndBit/8 + 8
	if ix.inner.EndBit%8 != 0 {
		end++
	}
	return end
}

// coversWholeFile reports whether the indexed member is the entire
// compressed file (payload + trailer reach exactly to csize): then the
// index's output size is the file's total decompressed size.
func (ix *Index) coversWholeFile(csize int64) bool { return ix.memberEnd() == csize }

// loadIndex parses a side-car blob for a gzip file of csize bytes whose
// first member's payload starts at payloadOff. Beyond what
// gzindex.Unmarshal checks of the blob alone, the member it describes
// must fit in the file.
func loadIndex(blob []byte, payloadOff, csize int64) (*Index, error) {
	inner, err := gzindex.Unmarshal(blob)
	if err != nil {
		return nil, err
	}
	ix := &Index{inner: inner, payloadOff: payloadOff}
	if ix.memberEnd() > csize {
		return nil, fmt.Errorf("%w: indexed member ends at byte %d of a %d-byte file", ErrIndexMismatch, ix.memberEnd(), csize)
	}
	return ix, nil
}

// ReadAt fills p with decompressed bytes starting at offset off,
// inflating only the checkpoint spans the read touches.
func (ix *Index) ReadAt(gz []byte, p []byte, off int64) (int, error) {
	return ix.inner.ReadAt(gz[min(ix.payloadOff, int64(len(gz))):], p, off)
}

// readAtSource is ReadAt over a File's byte source: each span the read
// touches loads exactly its own compressed bytes (in-memory sources
// alias the slice). The index is never mutated and every load is
// private to the call, so any number of these may run concurrently —
// this is File.ReadAt's embarrassingly parallel path.
func (ix *Index) readAtSource(f *File, p []byte, off int64) (int, error) {
	n, inflated, err := ix.inner.ReadAtSource(func(lo, hi int64) ([]byte, error) {
		w, err := f.openWindow(ix.payloadOff+lo, hi-lo)
		if err != nil {
			return nil, err
		}
		return w.data, nil
	}, p, off)
	f.inflated.Add(inflated)
	return n, err
}

// Marshal serialises the index to a compact side-car blob (windows
// deflated at BestSpeed, ~2.8x smaller than raw on FASTQ, each on its
// own, on up to GOMAXPROCS goroutines: the blob is the same at any
// parallelism); LoadIndex restores it, whatever level wrote it.
func (ix *Index) Marshal() ([]byte, error) { return ix.inner.Marshal() }

// LoadIndex restores an index serialised by Marshal for use with the
// same gzip file.
func LoadIndex(gz []byte, blob []byte) (*Index, error) {
	m, err := gzipx.ParseHeader(gz)
	if err != nil {
		return nil, err
	}
	return loadIndex(blob, int64(m.HeaderLen), int64(len(gz)))
}

// AttachIndex attaches an already-built (or loaded) checkpoint index
// for this same gzip file: subsequent ReadAt calls within the indexed
// extent decode from the nearest checkpoint instead of scanning from
// the start. A nil index detaches. The attach is atomic, so
// AttachIndex may run concurrently with reads.
func (f *File) AttachIndex(ix *Index) { f.setIndex(ix) }

// SetIndex is AttachIndex over a serialised blob (Index.Marshal): it
// unmarshals and attaches in one step, the way a side-car file is
// loaded.
func (f *File) SetIndex(blob []byte) error {
	ix, err := loadIndex(blob, f.hdrLen, f.size)
	if err != nil {
		return err
	}
	f.AttachIndex(ix)
	return nil
}

// NewIndexFromReader builds a checkpoint index of the first gzip member
// of src, with a checkpoint at the first block boundary every spacing
// output bytes (0 selects 1 MiB), in one streaming pass of the
// bounded-memory pipeline on o.Threads spans in flight: workers sync
// and decode spans symbolically, and each checkpoint's window is
// resolved from its span's symbols. A span is decoded symbolically only
// up to 16 output bytes per compressed byte (32 B of symbols); past
// that, and for the spans the resolver decodes itself, the window is
// captured by a tail-only exact decode in O(32 KiB). With one thread
// (or GOMAXPROCS 1) the build is one sequential exact pass. Peak memory
// is O(batch x 32 + index), independent of the stream size and its
// expansion, and the index is byte-identical (post-Marshal) to
// BuildIndex's over the same file.
func NewIndexFromReader(src io.Reader, spacing int64, o StreamOptions) (*Index, error) {
	ix, _, err := buildIndexStream(src, spacing, o)
	return ix, err
}

// indexBuildStats reports how a streaming index build went; used by
// tests to assert the bounded-memory property.
type indexBuildStats struct {
	// MaxBufferedCompressed is the peak compressed residency of the
	// pipeline's source window.
	MaxBufferedCompressed int64
	// Work is the pipeline's sync offsets tried, bytes decoded and
	// resolver take-overs.
	Work core.Work
}

// buildIndexStream is NewIndexFromReader returning build statistics.
func buildIndexStream(src io.Reader, spacing int64, o StreamOptions) (*Index, *indexBuildStats, error) {
	if spacing <= 0 {
		spacing = gzindex.DefaultSpacing
	}
	p := core.NewPipeline(src, core.PipelineOptions{
		Threads:              o.Threads,
		BatchCompressedBytes: o.BatchCompressedBytes,
		MinChunk:             o.MinChunk,
		ReadSize:             o.ReadSize,
		Prefetch:             o.Prefetch,
		MaxWindowBytes:       o.MaxWindowBytes,
	})
	defer p.Close()
	m, err := gzipx.ReadHeader(p.Window())
	if err != nil {
		return nil, nil, err
	}
	payloadOff := int64(m.HeaderLen)
	inner := &gzindex.Index{}
	res, err := p.RunMemberOpts(core.MemberRun{
		// The output is never translated: SkipTo past everything
		// makes every chunk a skipped one, and ExactCheckpoints makes
		// each offer the spacing-exact boundary windows the zran
		// contract requires, so the built index marshals
		// byte-identically to the sequential gzindex.Build.
		Emit:              func([]byte) error { return nil },
		SkipTo:            math.MaxInt64,
		ExactCheckpoints:  true,
		CheckpointSpacing: spacing,
		OnCheckpoint: func(cp core.Checkpoint) error {
			inner.Checkpoints = append(inner.Checkpoints, gzindex.Checkpoint{
				Bit:    cp.Bit - payloadOff*8,
				Out:    cp.Out,
				Window: cp.Window,
			})
			return nil
		},
	})
	if err != nil {
		return nil, nil, err
	}
	inner.OutSize = res.Out
	inner.EndBit = res.EndBit - payloadOff*8
	st := &indexBuildStats{
		MaxBufferedCompressed: p.Window().MaxBuffered(),
		Work:                  p.Work(),
	}
	return &Index{inner: inner, payloadOff: payloadOff}, st, nil
}

// BuildIndex builds the index of the File's first member in one
// streaming pass over its source (see NewIndexFromReader) and attaches
// it, so subsequent ReadAt calls within the indexed extent decode from
// the nearest checkpoint. It returns the index (e.g. to Marshal into a
// side-car). Like SetIndex, the attach is atomic: reads in flight see
// either the previous index or the new one.
func (f *File) BuildIndex(spacing int64) (*Index, error) {
	ix, err := NewIndexFromReader(io.NewSectionReader(f.src, 0, f.size), spacing, f.streamOptions())
	if err != nil {
		return nil, err
	}
	f.setIndex(ix)
	return ix, nil
}
