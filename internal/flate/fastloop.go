package flate

import (
	"repro/internal/bitio"
	"repro/internal/huffman"
)

// This file holds the multi-symbol token decode loop: the sink-side
// half of the fast path set up by decodeCompressedWith. The window
// sinks (Linear and Sliding, over either Cell type) implement
// FastTokenSink and run decodeFast directly over their buffer, so the
// hot loop has no interface calls per token, one 64-bit refill per
// iteration, and a bounds-checked copy kernel for matches. Sinks
// without a window (CountingSink, the engine's probe sinks) simply
// don't implement the interface and keep the scalar path.

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
	// fastSlack is the output headroom a caller must keep beyond the
	// kernel's write budget: one maximal match plus a packed pair.
	fastSlack = MaxMatch + 2
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
// maxW-1+MaxMatch; callers guarantee len(out) >= maxW-1+MaxMatch.
// minSrc is the lowest legal match source index (0, or the
// before-stream-start floor when tracking). Bits are consumed only
// for fully emitted tokens: on fastBail the reader still points at
// the offending token for the scalar loop to re-decode.
//
// Literals widen to E; matches copy whole cells, so over uint16 a
// back-reference into the undetermined context copies its U_j symbols
// exactly as the scalar Linear.Match does.
func decodeFast[E Cell](r *bitio.Reader, lit *huffman.LitLenFast, dist *huffman.DistFast, out []E, w, maxW, minSrc int) (int, fastStatus) {
	for {
		r.Refill()
		if r.Bits() < fastMinBits {
			return w, fastMore
		}
		if w >= maxW {
			return w, fastMore
		}
		x := r.Acc()
		e := lit.Lookup(x)
		if e.Kind() == huffman.FastSub {
			e = lit.SubLookup(e, x)
		}
		switch e.Kind() {
		case huffman.FastLit2:
			if w+2 > maxW {
				// Budget for one byte only: emit the first literal so
				// the stop position matches the scalar loop exactly.
				out[w] = E(e.Lit1())
				w++
				r.Consume(e.Lit1Bits())
				continue
			}
			out[w] = E(e.Lit1())
			out[w+1] = E(e.Lit2())
			w += 2
			r.Consume(e.NBits())
		case huffman.FastLit1:
			out[w] = E(e.Lit1())
			w++
			r.Consume(e.NBits())
		case huffman.FastLen:
			used := e.NBits()
			length := int(e.LenBase()) + (int(x>>used) & (1<<e.LenExtra() - 1))
			used += e.LenExtra()
			de := dist.Lookup(x >> used)
			if de.Sub() {
				de = dist.SubLookup(de, x>>used)
			}
			if !de.Direct() {
				return w, fastBail
			}
			dcb := de.NBits()
			dval := int(de.Base()) + (int(x>>(used+dcb)) & (1<<de.ExtraBits() - 1))
			used += dcb + de.ExtraBits()
			src := w - dval
			if src < minSrc {
				return w, fastBail
			}
			r.Consume(used)
			if dval >= length {
				copy(out[w:w+length], out[src:src+length])
				w += length
			} else {
				// Overlapping match (RLE-style): replicate the
				// available span in doubling rounds.
				end := w + length
				for w < end {
					w += copy(out[w:end], out[src:w])
				}
			}
		case huffman.FastEOB:
			r.Consume(e.NBits())
			return w, fastEOB
		default: // huffman.FastInvalid
			return w, fastBail
		}
	}
}
