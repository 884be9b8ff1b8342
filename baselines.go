package pugz

import (
	"bytes"
	"fmt"
	"runtime"

	"repro/internal/bgzf"
	"repro/internal/guess"
	"repro/internal/gzindex"
	"repro/internal/gzipx"
)

// This file exposes the two related-work baselines the paper positions
// pugz against (Section II), plus the undetermined-character guesser
// its discussion leaves as future work (Section VIII). They let
// downstream users — and the experiment harness — compare the three
// ways of getting random access to gzip data:
//
//	pugz.RandomAccess  no preparation, approximate above level 1
//	pugz.Index         exact, but requires one prior full decompression
//	pugz BGZF          exact and parallel, but requires re-compression
//	                   into the blocked format (and most public data
//	                   is not stored that way)

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
// deflate-compressed, each on its own, on up to GOMAXPROCS goroutines:
// the blob is the same at any parallelism); LoadIndex restores it.
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
// unmarshals and attaches in one step.
//
// Deprecated: callers holding a *Index should AttachIndex it directly
// instead of round-tripping through the blob encoding; SetIndex
// survives as a thin wrapper for side-car loading.
func (f *File) SetIndex(blob []byte) error {
	ix, err := loadIndex(blob, f.hdrLen, f.size)
	if err != nil {
		return err
	}
	f.AttachIndex(ix)
	return nil
}

// CompressBGZF compresses data into the blocked BGZF format
// (bgzip-compatible: independent <=64 KiB members with BC size
// fields). The output is a valid multi-member gzip file readable by
// any gunzip.
func CompressBGZF(data []byte, level int) ([]byte, error) {
	return bgzf.Compress(data, level)
}

// DecompressBGZF inflates a BGZF file with the given number of
// goroutines — trivially parallel because blocks are independent.
func DecompressBGZF(data []byte, threads int) ([]byte, error) {
	return bgzf.DecompressParallel(data, threads)
}

// BGZFReadAt serves an exact positional read from a BGZF file.
func BGZFReadAt(data []byte, p []byte, off int64) (int, error) {
	return bgzf.ReadAt(data, p, off)
}

// IsBGZF reports whether data begins with a BGZF block (a gzip member
// carrying the BC extra subfield).
func IsBGZF(data []byte) bool {
	_, err := bgzf.Scan(data)
	return err == nil
}

// GuessResult reports a guessing pass over random-access output.
type GuessResult struct {
	// Text is the input with undetermined characters replaced by
	// structure-aware guesses. Lossy: plausible, not exact.
	Text    []byte
	Guessed int
	// ByPhase counts guesses per FASTQ line phase
	// (header/dna/plus/quality/unknown).
	ByPhase map[string]int
}

// GuessUndetermined applies the FASTQ-structure-aware guesser to the
// narrowed text of a random access (the future-work direction of the
// paper's Section VIII). The input is not modified.
func GuessUndetermined(text []byte, seed int64) *GuessResult {
	r := guess.Undetermined(text, seed)
	out := &GuessResult{Text: r.Text, Guessed: r.Guessed, ByPhase: map[string]int{}}
	for p, n := range r.GuessedByPhase {
		if n > 0 {
			out.ByPhase[guess.Phase(p).String()] = n
		}
	}
	return out
}
