// Package huffman implements canonical Huffman coding as used by
// DEFLATE (RFC 1951 section 3.2.2): codes of length 1..15 assigned in
// order of (length, symbol), transmitted LSB-first with bit-reversed
// code values.
//
// The decoder is a two-level lookup table: a primary table indexed by
// the next primaryBits input bits resolves most symbols in one probe;
// longer codes indirect through per-prefix secondary tables. The
// builder performs the strict validity checks that internal/blockfind
// relies on to reject garbage headers early, and supports in-place
// re-initialisation so the brute-force scanner does not allocate per
// candidate bit offset.
package huffman

import (
	"bytes"
	"errors"
	"fmt"
)

// MaxCodeLen is the maximum DEFLATE code length.
const MaxCodeLen = 15

// primaryBits is the width of the first-level decode table. 9 covers
// all fixed-tree codes and the vast majority of dynamic-tree codes.
const primaryBits = 9

// Errors returned by Init/NewDecoder. blockfind distinguishes these
// only by non-nil-ness, but tests assert the specific failure modes.
var (
	ErrOversubscribed = errors.New("huffman: oversubscribed code set")
	ErrIncomplete     = errors.New("huffman: incomplete code set")
	ErrNoCodes        = errors.New("huffman: no symbols with nonzero length")
	ErrBadLength      = errors.New("huffman: code length out of range")
)

// entry packs a decode-table cell:
//
//	bits 0..3   code length (0 = invalid cell)
//	bits 4..19  symbol, or secondary-table index when indirect
//	bit  31     set when the cell indirects to a secondary table
type entry uint32

const indirectFlag entry = 1 << 31

func directEntry(sym uint16, length uint8) entry {
	return entry(uint32(sym)<<4 | uint32(length))
}

func (e entry) length() uint   { return uint(e & 0xf) }
func (e entry) symbol() int    { return int(e>>4) & 0xffff }
func (e entry) indirect() bool { return e&indirectFlag != 0 }

// Decoder decodes one canonical Huffman code set. The zero value is
// empty; call Init before use, or construct with NewDecoder. A Decoder
// may be re-Initialised any number of times and reuses its tables.
type Decoder struct {
	primary  [1 << primaryBits]entry
	sub      [][]entry // secondary tables for codes longer than primaryBits
	subUsed  int
	minLen   uint
	maxLen   uint
	complete bool
	// subIndex maps a reversed primary prefix to a sub-table id for the
	// current Init; reset between Inits via the generation trick.
	subIndex [1 << primaryBits]int32
	subGen   [1 << primaryBits]uint32
	gen      uint32
	// memo of the last successful Init: compressors commonly reuse one
	// tree description across consecutive blocks of a member, and the
	// tables are a pure function of (lengths, allowIncomplete), so an
	// identical re-Init skips the rebuild entirely.
	memoLens  [288]uint8
	memoN     int
	memoAllow bool
	memoOK    bool
}

// Complete reports whether the code set is exactly full (Kraft sum 1).
func (d *Decoder) Complete() bool { return d.complete }

// MaxLen returns the longest code length in the set.
func (d *Decoder) MaxLen() uint { return d.maxLen }

// NewDecoder builds a decoder from per-symbol code lengths
// (0 = symbol unused). See (*Decoder).Init for the validation rules.
func NewDecoder(lengths []uint8, allowIncomplete bool) (*Decoder, error) {
	d := new(Decoder)
	if err := d.Init(lengths, allowIncomplete); err != nil {
		return nil, err
	}
	return d, nil
}

// Init (re)builds the decoder from the per-symbol code lengths.
//
// allowIncomplete controls whether an under-subscribed code set (Kraft
// sum < 1) is accepted; DEFLATE permits this for distance trees with a
// single code, and zlib in practice accepts any under-subscription for
// distances. Oversubscribed sets are always rejected.
func (d *Decoder) Init(lengths []uint8, allowIncomplete bool) error {
	if d.memoOK && allowIncomplete == d.memoAllow && len(lengths) == d.memoN &&
		bytes.Equal(lengths, d.memoLens[:d.memoN]) {
		return nil
	}
	d.memoOK = false
	count, minLen, maxLen, complete, err := kraft(lengths, allowIncomplete)
	if err != nil {
		return err
	}

	// First code value per length (canonical ordering).
	var nextCode [MaxCodeLen + 2]uint32
	code := uint32(0)
	for l := 1; l <= MaxCodeLen; l++ {
		code = (code + uint32(count[l-1])) << 1
		nextCode[l] = code
	}

	d.minLen, d.maxLen, d.complete = minLen, maxLen, complete
	d.gen++
	d.subUsed = 0
	clear(d.primary[:])

	subWidth := uint(0)
	if maxLen > primaryBits {
		subWidth = maxLen - primaryBits
	}

	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		c := nextCode[l]
		nextCode[l]++
		rc := reverseBits(c, uint(l)) // LSB-first as read from the stream
		if uint(l) <= primaryBits {
			// Fill every primary cell whose low l bits equal rc.
			step := uint32(1) << uint(l)
			for i := rc; i < 1<<primaryBits; i += step {
				d.primary[i] = directEntry(uint16(sym), l)
			}
			continue
		}
		prefix := rc & (1<<primaryBits - 1)
		var id int
		if d.subGen[prefix] == d.gen {
			id = int(d.subIndex[prefix])
		} else {
			id = d.subUsed
			d.subUsed++
			if id == len(d.sub) {
				d.sub = append(d.sub, make([]entry, 1<<subWidth))
			} else if len(d.sub[id]) < 1<<subWidth {
				d.sub[id] = make([]entry, 1<<subWidth)
			} else {
				d.sub[id] = d.sub[id][:1<<subWidth]
				clear(d.sub[id])
			}
			d.subIndex[prefix] = int32(id)
			d.subGen[prefix] = d.gen
			d.primary[prefix] = indirectFlag | directEntry(uint16(id), uint8(maxLen))
		}
		tab := d.sub[id]
		high := rc >> primaryBits
		step := uint32(1) << (uint(l) - primaryBits)
		for i := high; i < 1<<subWidth; i += step {
			tab[i] = directEntry(uint16(sym), l)
		}
	}
	if len(lengths) <= len(d.memoLens) {
		copy(d.memoLens[:], lengths)
		d.memoN = len(lengths)
		d.memoAllow = allowIncomplete
		d.memoOK = true
	}
	return nil
}

// Check returns the error Init would return for lengths, without
// building tables: a block scanner rejects a false tree description
// with it before paying for one.
func Check(lengths []uint8, allowIncomplete bool) error {
	_, _, _, _, err := kraft(lengths, allowIncomplete)
	return err
}

// kraft validates a code set: the count of codes per length, the
// shortest and longest length, and whether the Kraft sum is exactly 1.
func kraft(lengths []uint8, allowIncomplete bool) (count [MaxCodeLen + 1]int, minLen, maxLen uint, complete bool, err error) {
	total := 0
	for _, l := range lengths {
		if l > MaxCodeLen {
			return count, 0, 0, false, ErrBadLength
		}
		if l > 0 {
			count[l]++
			total++
		}
	}
	if total == 0 {
		return count, 0, 0, false, ErrNoCodes
	}
	left := 1 // code space remaining, doubling each level
	for l := 1; l <= MaxCodeLen; l++ {
		left <<= 1
		left -= count[l]
		if left < 0 {
			return count, 0, 0, false, ErrOversubscribed
		}
		if count[l] > 0 {
			if minLen == 0 {
				minLen = uint(l)
			}
			maxLen = uint(l)
		}
	}
	complete = left == 0
	if !complete && !allowIncomplete {
		return count, 0, 0, false, ErrIncomplete
	}
	return count, minLen, maxLen, complete, nil
}

// reverseBits reverses the low n bits of v.
func reverseBits(v uint32, n uint) uint32 {
	var r uint32
	for i := uint(0); i < n; i++ {
		r = r<<1 | (v>>i)&1
	}
	return r
}

// ErrInvalidCode is returned when the input bits do not correspond to
// any code in the set (possible only for incomplete sets or truncated
// input).
var ErrInvalidCode = errors.New("huffman: invalid code in stream")

// errTruncatedCode is the pre-wrapped truncation variant of
// ErrInvalidCode. It is allocated once: the block scanner hits this
// path on a large fraction of its millions of probe offsets, so
// constructing a fresh wrapper per miss would dominate allocations.
var errTruncatedCode = fmt.Errorf("huffman: truncated input: %w", ErrInvalidCode)

// BitSource is the subset of *bitio.Reader the decoder needs. Defined
// as an interface so tests can use synthetic sources; the hot decode
// loops in internal/flate use the concrete *bitio.Reader via
// DecodeFast.
type BitSource interface {
	Peek(count uint) uint32
	Drop(count uint) error
	Len() int64
}

// Decode reads one symbol from src. It validates that enough input
// bits existed for the decoded length, which matters at end of stream:
// Peek zero-fills past the end, so a "successful" table hit whose code
// length exceeds the remaining bit count is actually truncated input.
func (d *Decoder) Decode(src BitSource) (int, error) {
	e := d.primary[src.Peek(primaryBits)]
	if e.indirect() {
		e = d.sub[e.symbol()][src.Peek(d.maxLen)>>primaryBits]
	}
	l := e.length()
	if l == 0 {
		return 0, ErrInvalidCode
	}
	if int64(l) > src.Len() {
		return 0, errTruncatedCode
	}
	if err := src.Drop(l); err != nil {
		return 0, err
	}
	return e.symbol(), nil
}
