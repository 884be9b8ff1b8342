// Package bitbail is the bitbail fixture: a miniature of the
// decodeFast kernel in internal/flate. The good kernels follow the
// contract — bail returns happen before any Consume for the failing
// token, the split-literal budget path consumes and continues (its
// token was emitted), EOB consumes its own code. The bad kernels
// consume speculatively before validating. Each shape comes twice,
// plain and type-parameterised over the cell type like the real
// kernel, so the analyzer provably checks generic bodies too, and once
// more over a by-value cursor, the real kernel's bit-position form.
package bitbail

type reader struct{ bits int }

func (r *reader) Refill()       {}
func (r *reader) Bits() int     { return r.bits }
func (r *reader) Consume(n int) { r.bits -= n }
func (r *reader) Acc() uint64   { return 0 }

type status uint8

const (
	statusMore status = iota
	statusEOB
	fastBail
)

// decodeFastGood mirrors the real kernel's shape: every fastBail
// return precedes the token's Consume.
func decodeFastGood(r *reader, out []byte, w, maxW int) (int, status) {
	for {
		r.Refill()
		if r.Bits() < 48 {
			return w, statusMore
		}
		if w >= maxW {
			return w, statusMore
		}
		x := r.Acc()
		switch x & 3 {
		case 0: // two-literal pack with a budget split
			if w+2 > maxW {
				out[w] = byte(x)
				w++
				r.Consume(8) // token emitted; continue is not a bail
				continue
			}
			out[w] = byte(x)
			out[w+1] = byte(x >> 8)
			w += 2
			r.Consume(16)
		case 1: // match with validation before consume
			if x&4 != 0 {
				return w, fastBail // nothing consumed for this token
			}
			r.Consume(24)
		case 2: // end of block consumes its own code
			r.Consume(8)
			return w, statusEOB
		default:
			return w, fastBail // invalid code: reader still at token start
		}
	}
}

// decodeFastBad consumes before validating the back-reference: the
// scalar loop would re-decode from the wrong bit position.
func decodeFastBad(r *reader, w int) (int, status) {
	for {
		r.Refill()
		if r.Bits() < 48 {
			return w, statusMore
		}
		used := 8
		r.Consume(used)
		if r.Acc()&1 != 0 {
			return w, fastBail // want `bail return after bits were consumed`
		}
		w++
	}
}

// decodeFastBadCond hides the Consume in the branch condition chain.
func decodeFastBadCond(r *reader, w int) (int, status) {
	for {
		r.Refill()
		if r.Bits() < 48 {
			return w, statusMore
		}
		if r.Consume(8); r.Acc()&1 != 0 {
			return w, fastBail // want `bail return after bits were consumed`
		}
		w++
	}
}

// decodeFastGenericGood is decodeFastGood over either cell type.
func decodeFastGenericGood[E byte | uint16](r *reader, out []E, w, maxW int) (int, status) {
	for {
		r.Refill()
		if r.Bits() < 48 {
			return w, statusMore
		}
		if w >= maxW {
			return w, statusMore
		}
		x := r.Acc()
		switch x & 3 {
		case 0:
			if w+2 > maxW {
				out[w] = E(x)
				w++
				r.Consume(8)
				continue
			}
			out[w] = E(x)
			out[w+1] = E(x >> 8)
			w += 2
			r.Consume(16)
		case 1:
			if x&4 != 0 {
				return w, fastBail
			}
			r.Consume(24)
		case 2:
			r.Consume(8)
			return w, statusEOB
		default:
			return w, fastBail
		}
	}
}

// decodeFastGenericBad consumes before validating, over either cell
// type.
func decodeFastGenericBad[E byte | uint16](r *reader, out []E, w int) (int, status) {
	for {
		r.Refill()
		if r.Bits() < 48 {
			return w, statusMore
		}
		r.Consume(8)
		if r.Acc()&1 != 0 {
			return w, fastBail // want `bail return after bits were consumed`
		}
		out[w] = E(r.Acc())
		w++
	}
}

// cursor is the by-value bit position the real kernel keeps in locals
// (bitio.Cursor): Consume returns the advanced copy, and the reader
// only sees it at Commit.
type cursor struct {
	acc  uint64
	bits int
}

func (r *reader) Cursor() cursor      { return cursor{bits: r.bits} }
func (r *reader) Commit(c cursor)     { r.bits = c.bits }
func (c cursor) Refill() cursor       { return c }
func (c cursor) Bits() int            { return c.bits }
func (c cursor) Acc() uint64          { return c.acc }
func (c cursor) Consume(n int) cursor { c.bits -= n; return c }

// decodeFastCursorGood is the real kernel's cursor form: every bail
// commits and returns before its token's Consume, and a token that was
// fully emitted consumes its bits, refills and decodes on.
func decodeFastCursorGood(r *reader, out []byte, w, maxW int) (int, status) {
	c := r.Cursor()
	for {
		c = c.Refill()
		if c.Bits() < 48 || w >= maxW {
			r.Commit(c)
			return w, statusMore
		}
		x := c.Acc()
		switch x & 3 {
		case 0: // literal: emitted, then consumed
			out[w] = byte(x)
			w++
			c = c.Consume(8)
		case 1: // match: validated before its consume
			if x&4 != 0 {
				r.Commit(c)
				return w, fastBail
			}
			c = c.Consume(24).Refill()
			w += 3
			continue
		case 2:
			c = c.Consume(8)
			r.Commit(c)
			return w, statusEOB
		default:
			r.Commit(c)
			return w, fastBail
		}
		c = c.Refill()
	}
}

// decodeFastCursorBad consumes into the cursor before validating: the
// commit then hands the scalar loop a position past the token.
func decodeFastCursorBad(r *reader, w int) (int, status) {
	c := r.Cursor()
	for {
		c = c.Refill()
		if c.Bits() < 48 {
			r.Commit(c)
			return w, statusMore
		}
		c = c.Consume(8)
		if c.Acc()&1 != 0 {
			r.Commit(c)
			return w, fastBail // want `bail return after bits were consumed`
		}
		w++
	}
}

// notAKernel is out of scope: only decodeFast* functions carry the
// bail contract (the scalar loop consumes per symbol by design).
func notAKernel(r *reader) status {
	r.Consume(8)
	if r.Acc()&1 != 0 {
		return fastBail
	}
	return statusMore
}
