// Package blockfind locates DEFLATE block start positions inside a
// compressed stream without any index, implementing Section VI-A and
// Appendix X-A of the paper.
//
// DEFLATE blocks are neither indexed nor byte-aligned, so the only way
// to find one is to attempt decompression at every bit offset and rely
// on stringent checks to fail fast on false candidates:
//
//   - a structural precheck first (flate.Decoder.Candidates, run by the
//     candidate decoder itself, 64 bits at a time): the header under
//     the rules below, a stored block's LEN/NLEN, a dynamic block's
//     whole code-length description and tree completeness, and a fixed
//     block's first symbols, read from the bits in place. It rejects
//     only what the decode would reject, and almost every false
//     candidate stops there;
//   - BFINAL must be 0 (we never seek to the very last block),
//   - BTYPE 3 is invalid,
//   - a dynamic Huffman description must be self-consistent and declare
//     at most 286 literal/length and 30 distance codes,
//   - decoded literals must be valid ASCII text bytes,
//   - distance symbols 30/31 are invalid,
//   - the decompressed block must be between 1 KiB and 4 MiB.
//
// A candidate that passes the precheck is decoded as one whole block
// under those rules, then confirmed by decoding several more blocks;
// failure backtracks to the bit after the candidate, exactly as the
// paper describes.
package blockfind

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/bitio"
	"repro/internal/flate"
)

// DefaultConfirmations is how many additional blocks must decode
// cleanly after a candidate before it is accepted (the paper uses 5).
const DefaultConfirmations = 5

// ErrNotFound is returned when no block start exists in the searched
// range.
var ErrNotFound = errors.New("blockfind: no block start found")

// Finder scans for block starts. It owns reusable decoder scratch and
// is not safe for concurrent use; create one per goroutine.
type Finder struct {
	candidate *flate.Decoder
	confirm   *flate.Decoder
	reader    *bitio.Reader
	// sink absorbs the probe decodes' tokens: the scanner only cares
	// whether decoding succeeds.
	sink flate.CountingSink
	// Confirmations is the number of extra blocks that must decode
	// after the candidate (default DefaultConfirmations).
	Confirmations int
	// Stats accumulate across calls for the E8 experiment.
	Stats Stats
	// Stop, when non-nil and set, ends a search between candidates with
	// ErrStopped: a scheduler that no longer needs the block start
	// abandons the probe without waiting for it to finish.
	Stop *atomic.Bool
}

// ErrStopped is returned by a search whose Finder.Stop was set.
var ErrStopped = errors.New("blockfind: search stopped")

// Stats counts scanner work.
type Stats struct {
	BitsTried    int64 // candidate bit offsets attempted
	Rejects      int64 // candidates the precheck or a one-block decode rejected
	ConfirmFails int64 // candidate decoded but confirmation failed
}

// New returns a Finder using the default stringent text validation.
func New() *Finder {
	return NewWithOptions(flate.Options{Validate: true})
}

// NewWithOptions overrides validation options (Validate is forced on).
func NewWithOptions(opts flate.Options) *Finder {
	opts.Validate = true
	confirmOpts := opts
	confirmOpts.AllowFinal = true
	return &Finder{
		candidate:     flate.NewDecoder(opts),
		confirm:       flate.NewDecoder(confirmOpts),
		Confirmations: DefaultConfirmations,
	}
}

// Next returns the bit offset of the first confirmed DEFLATE block
// start at or after fromBit in data. The search ends at the end of
// data; ErrNotFound is returned if no block start is confirmed.
func (f *Finder) Next(data []byte, fromBit int64) (int64, error) {
	return f.NextBefore(data, fromBit, int64(len(data))*8)
}

// NextBefore is Next bounded to candidate offsets < limitBit.
func (f *Finder) NextBefore(data []byte, fromBit, limitBit int64) (int64, error) {
	if fromBit < 0 {
		return 0, fmt.Errorf("blockfind: negative start bit %d", fromBit)
	}
	maxBit := int64(len(data)) * 8
	if limitBit > maxBit {
		limitBit = maxBit
	}
	// Rebind the scratch reader when the caller switches buffers.
	if f.reader == nil || len(f.reader.Data()) != len(data) ||
		(len(data) > 0 && &f.reader.Data()[0] != &data[0]) {
		f.reader = bitio.NewReader(data)
	}
	// Positions go 64 at a time through the precheck; the survivors are
	// decoded one block each, in order, then confirmed.
	for lo := fromBit; lo < limitBit; lo += 64 {
		if f.Stop != nil && f.Stop.Load() {
			return 0, ErrStopped
		}
		n := int(min(limitBit-lo, 64))
		decoded := int64(0) // candidates that decoded one block
		for m := f.candidate.Candidates(f.reader, lo, n); m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			bit := lo + int64(i)
			if err := f.reader.Reset(bit); err != nil {
				return 0, err
			}
			if _, err := f.candidate.DecodeBlock(f.reader, &f.sink); err != nil {
				continue
			}
			decoded++
			// Candidate decoded: confirm with several more blocks.
			if f.confirmFrom(data) {
				f.Stats.BitsTried += int64(i) + 1
				f.Stats.Rejects += int64(i) + 1 - decoded
				return bit, nil
			}
			f.Stats.ConfirmFails++
		}
		f.Stats.BitsTried += int64(n)
		f.Stats.Rejects += int64(n) - decoded
	}
	return 0, ErrNotFound
}

// confirmFrom decodes up to f.Confirmations more blocks at the
// reader's current position. Reaching the stream's final block during
// confirmation counts as success: we are synced at the end.
//
// Running out of data WITHOUT having seen a final block does not: a
// real DEFLATE stream always ends in a BFINAL block, so "blocks
// consumed exactly to the end of data, none final" means either the
// buffer is a window cut mid-stream (the caller will grow it and
// retry) or — the dangerous case — the candidate sits inside the
// byte-alignment padding of a final *stored* block, where the shifted
// header reads BFINAL=0 and the decode silently drops the final flag.
// Confirming such a candidate used to send the engine decoding past
// the end of the stream on stored-heavy (level-0) inputs.
func (f *Finder) confirmFrom(data []byte) bool {
	for i := 0; i < f.Confirmations; i++ {
		final, err := f.confirm.DecodeBlock(f.reader, &f.sink)
		if err != nil {
			return false
		}
		if final {
			return true
		}
		if f.reader.Len() <= 0 {
			return false // end of data, no final block: not synced
		}
	}
	return true
}
