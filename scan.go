package pugz

import (
	"errors"
	"fmt"

	"repro/internal/bitio"
	"repro/internal/blockfind"
	"repro/internal/flate"
)

// Block describes one DEFLATE block of a gzip member.
type Block struct {
	// StartBit / EndBit are absolute bit offsets within the DEFLATE
	// payload (add 8*header length for file-absolute positions).
	StartBit int64
	EndBit   int64
	// Type is "stored", "fixed" or "dynamic".
	Type string
	// Final marks the last block of the stream.
	Final bool
	// OutStart / OutEnd are the block's byte extent in the
	// decompressed output.
	OutStart int64
	OutEnd   int64
}

// ScanBlocks fully decodes the first member of a gzip file and returns
// every block boundary. This is the exhaustive (sequential) index; use
// FindBlock to sync to a single block near an arbitrary offset without
// decoding the prefix.
func ScanBlocks(gz []byte) ([]Block, error) {
	f, err := NewFileBytes(gz, FileOptions{})
	if err != nil {
		return nil, err
	}
	return f.ScanBlocks()
}

// ScanBlocks walks the first member block by block over the File's
// byte source, without materialising the decompressed output: token
// extents are tallied, back-references are bounds-checked against the
// produced count, and for non-slice sources the compressed window
// slides forward as blocks complete, so memory stays bounded by the
// largest single block. The walk reads only the File's immutable
// snapshot through a private window, so it is safe for concurrent use
// alongside any other File method.
func (f *File) ScanBlocks() ([]Block, error) {
	w, err := f.openWindow(f.hdrLen, minWindowLoad)
	if err != nil {
		return nil, err
	}
	var blocks []Block
	var outPos int64
	bit := int64(0) // payload-relative decode position
	// One decoder walks every block from the stream start, so it
	// rejects a back-reference before the first output byte: the scan
	// is as strict as a real decode.
	dec := flate.GetDecoder(flate.Options{})
	defer flate.PutDecoder(dec)
	dec.SetTrackStart(true)
	for {
		relBit := bit - (w.base-f.hdrLen)*8
		r, err := bitio.NewReaderAt(w.data, relBit)
		if err != nil {
			return nil, err
		}
		var sink flate.CountingSink
		dec.SetProduced(outPos) // a retried block counts from its start again
		final, err := dec.DecodeBlock(r, &sink)
		if err != nil {
			// A failed decode on a partial window is retried with more
			// data resident; at EOF the failure is real.
			if grown, gerr := w.grow(); gerr != nil {
				return nil, gerr
			} else if grown {
				continue
			}
			return nil, fmt.Errorf("pugz: scan at payload bit %d: %w", bit, err)
		}
		endBit := (w.base-f.hdrLen)*8 + sink.EndBit
		blocks = append(blocks, Block{
			StartBit: bit,
			EndBit:   endBit,
			Type:     sink.Event.Type.String(),
			Final:    sink.Event.Final,
			OutStart: outPos,
			OutEnd:   outPos + sink.Bytes,
		})
		outPos += sink.Bytes
		bit = endBit
		if final {
			return blocks, nil
		}
		// Completed blocks are never re-read: slide the window forward
		// so residency stays bounded for long walks.
		w.discardTo(f.hdrLen + bit/8)
	}
}

// FindBlock locates the first confirmed DEFLATE block start at or
// after the given byte offset into the compressed file, by brute-force
// bit scanning with the stringent checks of Appendix X-A. It returns
// the block's bit offset within the DEFLATE payload.
//
// ErrNotFound is returned when no block start is confirmed before the
// end of the file (in particular, the final block of a stream is never
// a valid target).
func FindBlock(gz []byte, fromByte int64) (int64, error) {
	f, err := NewFileBytes(gz, FileOptions{})
	if err != nil {
		return 0, err
	}
	return f.FindBlockAt(fromByte)
}

// FindBlockAt is FindBlock over the File's byte source. For non-slice
// sources the scan runs over an on-demand window that grows until a
// confirmed start is found (with headroom so its confirmation blocks
// are resident) or the source is exhausted. Safe for concurrent use
// (private window over the immutable snapshot).
func (f *File) FindBlockAt(fromByte int64) (int64, error) {
	from := fromByte
	if from < f.hdrLen {
		from = f.hdrLen
	}
	if from > f.size {
		return 0, ErrNotFound
	}
	w, err := f.openWindow(from, minWindowLoad)
	if err != nil {
		return 0, err
	}
	bit, err := findInWindow(w, 0)
	if err != nil {
		return 0, err
	}
	return (w.base-f.hdrLen)*8 + bit, nil
}

// findInWindow locates a confirmed block start at or after
// window-relative bit fromBit, growing the window as needed. The
// returned bit offset is window-relative.
func findInWindow(w *srcWindow, fromBit int64) (int64, error) {
	for {
		finder := blockfind.New()
		bit, err := finder.Next(w.data, fromBit)
		switch {
		case err == nil:
			// A start confirmed close to the edge of a partial window
			// may have had its confirmation blocks cut short; re-run
			// with more data resident before trusting it.
			if !w.atEOF && int64(len(w.data))-bit/8 < confirmSlack {
				if grown, gerr := w.grow(); gerr != nil {
					return 0, gerr
				} else if grown {
					continue
				}
			}
			return bit, nil
		case errors.Is(err, blockfind.ErrNotFound):
			if grown, gerr := w.grow(); gerr != nil {
				return 0, gerr
			} else if grown {
				continue
			}
			return 0, ErrNotFound
		default:
			return 0, err
		}
	}
}

// confirmSlack is how much resident data must follow a candidate block
// start found in a partial window before it is accepted without
// growing the window (enough for the confirmation decodes).
const confirmSlack = 256 << 10

// ErrNotFound re-exports the block scanner's miss condition.
var ErrNotFound = blockfind.ErrNotFound
