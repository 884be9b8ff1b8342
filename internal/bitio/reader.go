// Package bitio provides bit-granular readers and writers over byte
// slices, in the LSB-first bit order used by DEFLATE (RFC 1951).
//
// The Reader supports starting at an arbitrary *bit* offset, which is
// the capability that makes brute-force DEFLATE block detection
// (internal/blockfind) possible: candidate block headers can begin at
// any of the 8 bit positions within any byte of a gzip member.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrUnderflow is returned when more bits are requested than remain in
// the underlying buffer.
var ErrUnderflow = errors.New("bitio: read past end of input")

// Reader reads bits LSB-first from a byte slice. The zero value is not
// usable; construct with NewReader or NewReaderAt.
//
// Reader keeps up to 64 bits buffered in an accumulator. All Peek/Take
// calls for n <= 32 are safe as long as Refill has been called since the
// last 32 bits were consumed; the exported methods handle refilling
// internally, so callers never need to think about the accumulator.
type Reader struct {
	data []byte // entire input
	pos  int    // index of next byte to load into acc
	acc  uint64 // bit accumulator, next bit is LSB
	n    uint   // number of valid bits in acc
}

// NewReader returns a Reader positioned at bit 0 of data.
func NewReader(data []byte) *Reader {
	r := &Reader{data: data}
	r.refill()
	return r
}

// NewReaderAt returns a Reader positioned at the given absolute bit
// offset. It returns an error if bitOffset is negative or beyond the
// end of data. A reader positioned exactly at the end is valid but any
// read returns ErrUnderflow.
func NewReaderAt(data []byte, bitOffset int64) (*Reader, error) {
	total := int64(len(data)) * 8
	if bitOffset < 0 || bitOffset > total {
		return nil, fmt.Errorf("bitio: bit offset %d out of range [0,%d]", bitOffset, total)
	}
	r := &Reader{data: data, pos: int(bitOffset / 8)}
	r.refill()
	// Discard the intra-byte bits.
	if rem := uint(bitOffset % 8); rem > 0 {
		r.acc >>= rem
		r.n -= rem
	}
	return r, nil
}

// Reset repositions the reader at the given absolute bit offset without
// allocating. It is equivalent to NewReaderAt on the same data.
func (r *Reader) Reset(bitOffset int64) error {
	total := int64(len(r.data)) * 8
	if bitOffset < 0 || bitOffset > total {
		return fmt.Errorf("bitio: bit offset %d out of range [0,%d]", bitOffset, total)
	}
	r.pos = int(bitOffset / 8)
	r.acc = 0
	r.n = 0
	r.refill()
	if rem := uint(bitOffset % 8); rem > 0 {
		r.acc >>= rem
		r.n -= rem
	}
	return nil
}

// refill tops up the accumulator exactly as Cursor.Refill does, kept
// in pointer form so it stays small enough to inline into Peek, Take
// and the other scalar-path methods.
func (r *Reader) refill() {
	if r.n >= 56 {
		return
	}
	if r.pos+8 <= len(r.data) {
		r.acc |= binary.LittleEndian.Uint64(r.data[r.pos:]) << r.n
		r.pos += int((63 - r.n) >> 3)
		r.n |= 56
		return
	}
	r.refillSlow()
}

func (r *Reader) refillSlow() {
	for r.n <= 56 && r.pos < len(r.data) {
		r.acc |= uint64(r.data[r.pos]) << r.n
		r.pos++
		r.n += 8
	}
}

// Cursor is a Reader's bit position by value: the accumulator, its
// valid bit count and the byte cursor, with no pointer to go through.
// A hot loop takes one with Reader.Cursor, keeps it in a local (so the
// three fields can live in registers), advances it with the value
// methods below, and hands it back with Reader.Commit before the
// Reader is used again.
type Cursor struct {
	acc uint64 // bit accumulator, next bit is LSB
	n   uint   // number of valid bits in acc
	pos int    // index of next byte to load into acc
}

// Cursor returns the reader's current position.
func (r *Reader) Cursor() Cursor { return Cursor{r.acc, r.n, r.pos} }

// Commit moves the reader to c, a Cursor taken from r and advanced
// over r's own data.
func (r *Reader) Commit(c Cursor) { r.acc, r.n, r.pos = c.acc, c.n, c.pos }

// Refill tops up the accumulator with whole bytes of data, the slice
// the cursor was taken over. Away from the end of the input it loads
// eight bytes at once and advances the byte cursor by however many
// whole bytes fit: with n valid bits the load contributes bits n..63,
// of which floor((64-n)/8) = (63-n)>>3 whole bytes are newly
// accounted, leaving n' = n|56 (n mod 8 is preserved, so byte
// alignment and BitPos are bit-exact). The bits above n' in the
// accumulator are the correct continuation of the stream — the next
// refill re-ORs the same values, so they are harmless and every
// consumer masks to the bits it asked for.
//
// Within 8 bytes of the end the slow byte-at-a-time loop takes over,
// so the cursor never loads past len(data).
func (c Cursor) Refill(data []byte) Cursor {
	if c.n >= 56 {
		return c
	}
	if c.pos+8 <= len(data) {
		c.acc |= binary.LittleEndian.Uint64(data[c.pos:]) << c.n
		c.pos += int((63 - c.n) >> 3)
		c.n |= 56
		return c
	}
	return c.refillSlow(data)
}

func (c Cursor) refillSlow(data []byte) Cursor {
	for c.n <= 56 && c.pos < len(data) {
		c.acc |= uint64(data[c.pos]) << c.n
		c.pos++
		c.n += 8
	}
	return c
}

// Consume discards count buffered bits with no underflow check; the
// caller guarantees count <= Bits().
func (c Cursor) Consume(count uint) Cursor {
	c.acc >>= count
	c.n -= count
	return c
}

// Acc returns the accumulator: the next Bits() unread bits of the
// stream, LSB-first. Bits at positions >= Bits() are either zero or
// the correct continuation of the stream (never garbage), so callers
// that mask to at most Bits() bits are exact.
func (c Cursor) Acc() uint64 { return c.acc }

// Bits returns the number of valid buffered bits.
func (c Cursor) Bits() uint { return c.n }

// Refill tops up the accumulator. After the call, Bits() >= 56 unless
// fewer bits than that remain in the input: one Refill covers a
// worst-case DEFLATE token (litlen code + extra + dist code + extra
// <= 48 bits), which is how a window sink tells whether the fast loop
// can run.
func (r *Reader) Refill() { r.refill() }

// Bits returns the number of valid buffered bits in the accumulator.
func (r *Reader) Bits() uint { return r.n }

// Consume discards count buffered bits with no underflow check. The
// caller must guarantee count <= Bits().
func (r *Reader) Consume(count uint) {
	r.acc >>= count
	r.n -= count
}

// BitPos returns the absolute bit offset of the next unread bit.
func (r *Reader) BitPos() int64 {
	return int64(r.pos)*8 - int64(r.n)
}

// Len returns the number of unread bits remaining.
func (r *Reader) Len() int64 {
	return int64(len(r.data))*8 - r.BitPos()
}

// Peek returns the next count bits without consuming them. count must
// be in [0,32]. If fewer than count bits remain, the missing high bits
// are zero and ok is false only when *no* bits remain at all and
// count > 0; callers that need exact boundary checking should compare
// Len() themselves (the DEFLATE decoder does).
func (r *Reader) Peek(count uint) uint32 {
	if r.n < count {
		r.refill()
	}
	return uint32(r.acc) & ((1 << count) - 1)
}

// Take consumes and returns count bits (count in [0,32]). It returns
// ErrUnderflow if fewer than count bits remain.
func (r *Reader) Take(count uint) (uint32, error) {
	if r.n < count {
		r.refill()
		if r.n < count {
			return 0, ErrUnderflow
		}
	}
	v := uint32(r.acc) & ((1 << count) - 1)
	r.acc >>= count
	r.n -= count
	return v, nil
}

// Drop consumes count bits that were previously Peeked. It must not be
// called for more bits than Peek made available; in debug terms this is
// a programmer error and is reported as ErrUnderflow.
func (r *Reader) Drop(count uint) error {
	if r.n < count {
		r.refill()
		if r.n < count {
			return ErrUnderflow
		}
	}
	r.acc >>= count
	r.n -= count
	return nil
}

// AlignByte discards bits up to the next byte boundary and returns the
// number of bits skipped (0..7).
func (r *Reader) AlignByte() uint {
	skip := r.n % 8
	r.acc >>= skip
	r.n -= skip
	return skip
}

// ReadBytes copies count whole bytes into dst after aligning to a byte
// boundary is NOT performed; the reader must already be byte-aligned
// (DEFLATE stored blocks guarantee this). It returns ErrUnderflow when
// not enough input remains and ErrUnaligned when mid-byte.
func (r *Reader) ReadBytes(dst []byte) error {
	if r.n%8 != 0 {
		return ErrUnaligned
	}
	for i := range dst {
		if r.n == 0 {
			r.refill()
			if r.n == 0 {
				return ErrUnderflow
			}
		}
		dst[i] = byte(r.acc)
		r.acc >>= 8
		r.n -= 8
	}
	return nil
}

// ErrUnaligned is returned by ReadBytes when the reader is not at a
// byte boundary.
var ErrUnaligned = errors.New("bitio: byte read at non-byte boundary")

// Data returns the underlying buffer (shared, not copied).
func (r *Reader) Data() []byte { return r.data }
