// Package baseline holds what the paper measures pugz against or
// leaves as future work, outside the decompressor's import graph:
//
//   - a gzip compressor (gzip-compatible output with zlib level
//     semantics, levels 0-9, plus a pigz-style parallel variant), so
//     corpora for the paper's experiments can be generated without cgo
//     or external binaries;
//   - the blocked-gzip (BGZF) baseline of Section II: exact and
//     parallel random access, but only for files re-compressed into the
//     blocked format, which most public data is not;
//   - the FASTQ-structure-aware guesser of undetermined characters
//     (Section VIII's future work).
//
// Together with the decompressor they give the three ways of getting
// random access to gzip data the experiments compare:
//
//	pugz.RandomAccess  no preparation, approximate above level 1
//	pugz.Index         exact, but requires one prior full decompression
//	baseline BGZF      exact and parallel, but requires re-compression
//
// The package does not import the root package pugz, so pugz's own
// tests can build their corpora with it.
package baseline

import (
	"repro/internal/bgzf"
	"repro/internal/guess"
)

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
