package flate

import (
	"repro/internal/bitio"
	"repro/internal/huffman"
)

// This file holds the multi-symbol token decode loop: the sink-side
// half of the fast path set up by decodeCompressedWith. The window
// sinks (Linear and Sliding, over either Cell type) implement
// FastTokenSink and run decodeFast directly over their buffer, so the
// hot loop has no interface calls per token. It keeps the bit position
// in a bitio.Cursor local (registers, not the Reader's fields), refills
// only below fastMinBits buffered bits, looks up the next token's entry
// before a match's copy runs, and copies matches from at least 8 cells
// back in whole 8-cell steps that may overrun the match's end into the
// sink's FastSlack headroom. Sinks without a window (CountingSink, the
// engine's probe sinks) simply don't implement the interface and keep
// the scalar path.

// FastCtx bundles what a FastTokenSink needs for one fast-loop call.
// It is owned by the Decoder and valid only for the duration of the
// FastTokens invocation.
type FastCtx struct {
	R    *bitio.Reader
	Lit  *huffman.LitLenFast
	Dist *huffman.DistFast
	// Track mirrors Decoder.SetTrackStart: a back-reference reaching
	// before the stream's first produced byte must bail so the scalar
	// loop reports ErrDistanceTooFar (or ErrDanglingRef) canonically.
	Track bool
	// Produced is the stream-total output count before this call; a
	// tracking sink derives its minimum legal back-reference from it.
	Produced int64

	sink FastTokenSink
}

// FastTokenSink extends Visitor for sinks that expose their output
// window to the fast loop. FastTokens decodes as many tokens as it
// can directly into the sink's buffer and returns the number of bytes
// emitted, whether the end-of-block code was consumed, and an error
// (Stop for limit halts). On (eob=false, err=nil) return the reader
// is positioned bit-exactly at an undecoded token: either fewer than
// fastMinBits bits remain buffered or the next token needs the scalar
// loop (invalid/rare code, out-of-range back-reference).
type FastTokenSink interface {
	Visitor
	FastTokens(fc *FastCtx) (produced int64, eob bool, err error)
}

const (
	// fastMinBits is the buffered-bit floor for one fast iteration: a
	// worst-case token is litlen code (15) + length extra (5) + dist
	// code (15) + dist extra (13) = 48 bits, so a single refill
	// (>= 56 bits away from EOF) always covers a whole token.
	fastMinBits = 48
	// FastSlack is the output headroom a window sink keeps beyond its
	// write position for the fast loop to run: one maximal match, a
	// packed literal pair, and the 8-cell over-copy's overrun. A sink
	// of capacity n runs the kernel with maxW = n-FastSlack+2, so its
	// writes stay below maxW-1+MaxMatch+7 < n, and FastSlack free cells
	// leave room for a literal pair before maxW.
	FastSlack = MaxMatch + 2 + 8
)

type fastStatus uint8

const (
	fastMore fastStatus = iota // out of bits, room, or budget
	fastEOB                    // end-of-block code consumed
	fastBail                   // next token needs the scalar loop
)

// decodeFast decodes tokens from r into out[w:]. It stops before
// decoding a token once w >= maxW (so a limit-bounded caller stops on
// the same token the scalar loop would) and never writes at or beyond
// maxW-1+MaxMatch+7; callers guarantee len(out) >= maxW-1+MaxMatch+7.
// Cells past the returned w may hold junk: they are overwritten before
// any back-reference can read them. minSrc is the lowest legal match
// source index (0, or the before-stream-start floor when tracking).
// Bits are consumed only for fully emitted tokens: on fastBail the
// reader still points at the offending token for the scalar loop to
// re-decode.
//
// The bit position lives in a bitio.Cursor local for the whole call
// and is committed back to r on every return. Literals widen to E;
// matches copy whole cells, so over uint16 a back-reference into the
// undetermined context copies its U_j symbols exactly as the scalar
// Linear.Match does. A match at distance 8 or more copies 8-cell
// steps, always two of them (most matches are at most 16 cells, and a
// fixed pair saves a mispredicted loop exit), each reading only cells
// written before it; a shorter distance overlaps within a step and
// keeps the exact copy.
func decodeFast[E Cell](r *bitio.Reader, lit *huffman.LitLenFast, dist *huffman.DistFast, out []E, w, maxW, minSrc int) (int, fastStatus) {
	// Capping both slices at their length makes cap the same value as
	// len, one register less each in a loop short of registers.
	data := r.Data()
	data = data[:len(data):len(data)]
	out = out[:len(out):len(out)]
	c := r.Cursor().Refill(data)
	e := lit.Lookup(c.Acc())
	for {
		if c.Bits() < fastMinBits || w >= maxW {
			r.Commit(c)
			return w, fastMore
		}
		x := c.Acc()
		if e.Kind() == huffman.FastSub {
			e = lit.SubLookup(e, x)
		}
		switch e.Kind() {
		case huffman.FastLit1, huffman.FastLit2:
			// Both literal kinds store two cells (a FastLit1 entry's
			// second is junk past w) and advance by the kind, which is
			// the literal count.
			n, nb := int(e.Kind()), e.NBits()
			if w+n > maxW {
				// Budget for one byte only: emit the first literal so
				// the stop position matches the scalar loop exactly.
				n, nb = 1, e.Lit1Bits()
			}
			*(*[2]E)(out[w:]) = [2]E{E(e.Lit1()), E(e.Lit2())}
			w += n
			c = c.Consume(nb)
		case huffman.FastLen:
			// The "& 63" masks are no-ops (a token is at most 48 bits)
			// that let the compiler drop the shift-range guards.
			used := e.NBits()
			length := int(e.LenBase()) + (int(x>>used) & (1<<e.LenExtra() - 1))
			used = (used + e.LenExtra()) & 63
			de := dist.Lookup(x >> used)
			if de.Sub() {
				de = dist.SubLookup(de, x>>used)
			}
			if !de.Direct() {
				r.Commit(c)
				return w, fastBail
			}
			dcb := de.NBits()
			dval := int(de.Base()) + (int(x>>((used+dcb)&63)) & (1<<de.ExtraBits() - 1))
			used = (used + dcb + de.ExtraBits()) & 63
			src := w - dval
			if src < minSrc {
				r.Commit(c)
				return w, fastBail
			}
			// Look up the next token before copying, so its decode
			// does not wait behind the copy's branches.
			c = c.Consume(used).Refill(data)
			e = lit.Lookup(c.Acc())
			switch {
			case dval >= 8:
				*(*[8]E)(out[w:]) = *(*[8]E)(out[src:])
				*(*[8]E)(out[w+8:]) = *(*[8]E)(out[src+8:])
				for i := 16; i < length; i += 8 {
					*(*[8]E)(out[w+i:]) = *(*[8]E)(out[src+i:])
				}
				w += length
			case dval >= length:
				copy(out[w:w+length], out[src:src+length])
				w += length
			default:
				// Overlapping short-period match (RLE-style):
				// replicate the available span in doubling rounds.
				end := w + length
				for w < end {
					w += copy(out[w:end], out[src:w])
				}
			}
			continue
		case huffman.FastEOB:
			c = c.Consume(e.NBits())
			r.Commit(c)
			return w, fastEOB
		default: // huffman.FastInvalid
			r.Commit(c)
			return w, fastBail
		}
		// A literal leaves at least 48-15 bits: enough to look up the
		// next code, so the refill waits until fewer than fastMinBits
		// remain.
		if c.Bits() < fastMinBits {
			c = c.Refill(data)
		}
		e = lit.Lookup(c.Acc())
	}
}
