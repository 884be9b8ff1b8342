package pugz

import (
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/gzindex"
	"repro/internal/gzipx"
)

// This file is the streaming construction path for the zran-style
// checkpoint Index: the bounded-memory pipeline over any io.Reader,
// scheduled like a Reader — workers sync spans and decode them
// symbolically, the resolver chains their windows — with each due
// block boundary's 32 KiB window resolved from the symbols before it
// (or captured by the resolver's own tail-only decodes as they pass
// it). The whole-file BuildIndex in baselines.go is a thin wrapper over
// it, and pugz -mkindex streams through it, so index construction never
// slurps the compressed file.

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
