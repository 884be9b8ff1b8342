// Package bitbail is the bitbail fixture: a miniature of the
// decodeFast kernel in internal/flate. The good kernels follow the
// contract — bail returns happen before any Consume for the failing
// token, the split-literal budget path consumes and continues (its
// token was emitted), EOB consumes its own code. The bad kernels
// consume speculatively before validating. Each shape comes twice,
// plain and type-parameterised over the cell type like the real
// kernel, so the analyzer provably checks generic bodies too.
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

// notAKernel is out of scope: only decodeFast* functions carry the
// bail contract (the scalar loop consumes per symbol by design).
func notAKernel(r *reader) status {
	r.Consume(8)
	if r.Acc()&1 != 0 {
		return fastBail
	}
	return statusMore
}
