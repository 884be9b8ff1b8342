package flate

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/bitio"
	"repro/internal/huffman"
)

// fixedProbe is how many bits of a fixed-Huffman block's data
// Candidates decodes. On compressed bytes read at a wrong offset about
// 40% of symbols already fail (a literal outside the text predicate, an
// early end of block, symbol 286/287 or distance 30/31), so few
// candidates get far.
const fixedProbe = 256

// Candidates returns the positions lo+i, i < n <= 64, of r's data at
// which DecodeBlock may succeed, as bit i of a mask: a position is left
// out only where DecodeBlock fails too. It is a block scanner's first
// test, for a validating Decoder (Options.Validate); without Validate
// every position is returned. r is left at an arbitrary position.
//
// The header bits (BFINAL, BTYPE) are tested on all 64 positions at
// once as word operations; each survivor then gets its block type's
// test, read in place from the bits: a stored block's LEN, NLEN and
// bytes; a dynamic block's whole code-length description
// (readCodeLengths, after a table lookup that rejects an incomplete
// precode) and huffman.Check of its two trees, so no decode table is
// built but the precode's; and a fixed block's first fixedProbe bits
// of symbols.
func (d *Decoder) Candidates(r *bitio.Reader, lo int64, n int) uint64 {
	all := ^uint64(0)
	if n < 64 {
		all = 1<<n - 1
	}
	if !d.opts.Validate {
		return all
	}
	data := r.Data()
	w0, w1 := bitsAt(data, lo), bitsAt(data, lo+64)
	b1, b2 := w0>>1|w1<<63, w0>>2|w1<<62 // bit i: stream bit lo+i+1, lo+i+2
	open := all &^ w0                    // BFINAL 0
	if d.opts.AllowFinal {
		open = all
	}
	var ok uint64
	for m := open &^ b1 &^ b2; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if d.storedOK(data, lo+int64(i)+3) {
			ok |= 1 << i
		}
	}
	for m := open & b1 &^ b2; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if d.fixedOK(data, lo+int64(i)+3) {
			ok |= 1 << i
		}
	}
	for m := open &^ b1 & b2; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if d.dynamicOK(r, lo+int64(i)+3) {
			ok |= 1 << i
		}
	}
	return ok
}

// bitsAt returns the 64 stream bits of data from bit on, zero past its
// end.
func bitsAt(data []byte, bit int64) uint64 {
	i, s := bit>>3, uint(bit&7)
	if i+9 > int64(len(data)) {
		var tail [9]byte
		if i < int64(len(data)) {
			copy(tail[:], data[i:])
		}
		data, i = tail[:], 0
	}
	w := binary.LittleEndian.Uint64(data[i:]) >> s
	if s > 0 {
		w |= uint64(data[i+8]) << (64 - s)
	}
	return w
}

// The three block types' tests take the bit just past the header.

// storedOK makes decodeStored's tests.
func (d *Decoder) storedOK(data []byte, bit int64) bool {
	lens := bitsAt(data, (bit+7)&^7) // LEN, NLEN at the next byte boundary
	n := int(lens & 0xffff)
	start := (bit+7)/8 + 4
	if uint16(n) != ^uint16(lens>>16) || n > d.opts.MaxBlockOutput || int64(len(data))-start < int64(n) {
		return false
	}
	for _, b := range data[start : start+int64(n)] {
		if !d.valid[b] {
			return false
		}
	}
	return true
}

// dynamicOK reads the header with readCodeLengths and checks its trees
// as readDynamicHeader's Inits would.
func (d *Decoder) dynamicOK(r *bitio.Reader, bit int64) bool {
	// The precode must be complete (codeLen.Init with allowIncomplete
	// false): its Kraft sum over 7-bit codes is 128. Bits past the end
	// of data read as zeros here, which only lets a truncated header
	// through to readCodeLengths.
	data := r.Data()
	hclen := int(bitsAt(data, bit)>>10&15) + 4
	fields := bitsAt(data, bit+14) & (1<<(3*hclen) - 1)
	if kraft4[fields&4095]+kraft4[fields>>12&4095]+kraft4[fields>>24&4095]+
		kraft4[fields>>36&4095]+kraft4[fields>>48&4095] != 128 {
		return false
	}
	if r.Reset(bit) != nil || d.readCodeLengths(r) != nil {
		return false
	}
	lens := d.lengths[:d.hlit+d.hdist]
	return huffman.Check(lens[:d.hlit], false) == nil && huffman.Check(lens[d.hlit:], true) == nil
}

// fixedOK decodes a fixed block's first fixedProbe bits of symbols
// under decodeCompressedWith's tests.
func (d *Decoder) fixedOK(data []byte, bit int64) bool {
	produced := 0
	for end := bit + fixedProbe; bit < end; {
		n := uint(min(int64(len(data))*8-bit, 64))
		used, out, verdict := d.fixedScan(bitsAt(data, bit), n, produced)
		switch {
		case verdict != 0:
			return verdict > 0
		case used == 0: // the next symbol runs past the end of data
			return false
		}
		bit, produced = bit+int64(used), out
	}
	return true
}

// fixedScan decodes the symbols of a fixed block's data that lie
// wholly inside its next n <= 64 bits, v, after produced bytes. It
// returns the bits those symbols take, the bytes produced after them
// and a verdict once one is known: -1 when a symbol fails a test the
// scalar loop makes (a literal outside ValidByte, symbol 286/287,
// distance 30/31, output past MaxBlockOutput, the end of block below
// MinBlockOutput), +1 at an end of block that passes.
func (d *Decoder) fixedScan(v uint64, n uint, produced int) (used uint, out int, verdict int) {
	for {
		e := fixedLitLen[v&uint64(len(fixedLitLen)-1)]
		l := uint(e & 15)
		if l > n {
			return used, produced, 0
		}
		sym := int(e >> 4)
		switch {
		case sym < endOfBlock:
			if !d.valid[sym] {
				return used, produced, -1
			}
			produced++
		case sym == endOfBlock:
			if produced < d.opts.MinBlockOutput {
				return used, produced, -1
			}
			return used + l, produced, 1
		case sym-257 >= len(lengthBase):
			return used, produced, -1
		default:
			extra := uint(lengthExtra[sym-257])
			dsym := int(bits.Reverse8(uint8(v>>(l+extra)&31)) >> 3)
			if dsym >= len(distBase) {
				if l+extra+5 > n {
					return used, produced, 0
				}
				return used, produced, -1
			}
			dextra := uint(distExtra[dsym])
			if l+extra+5+dextra > n {
				return used, produced, 0
			}
			produced += int(lengthBase[sym-257]) + int(v>>l&(1<<extra-1))
			l += extra + 5 + dextra
		}
		if produced > d.opts.MaxBlockOutput {
			return used, produced, -1
		}
		v, n, used = v>>l, n-l, used+l
	}
}

// kraft4 is the Kraft sum, in units of a 7-bit code, of four 3-bit
// precode lengths packed LSB first.
var kraft4 [1 << 12]uint16

// fixedLitLen decodes the fixed literal/length code from the next 9
// stream bits: symbol<<4 | code length.
var fixedLitLen [1 << 9]uint16

func init() {
	for v := range kraft4 {
		for k := 0; k < 12; k += 3 {
			if l := v >> k & 7; l > 0 {
				kraft4[v] += 128 >> l
			}
		}
	}
	var count, next [10]uint16 // codes of each length, the first one's value
	lengths := fixedLitLenLengths()
	for _, l := range lengths {
		count[l]++
	}
	for l := 1; l < len(next); l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	for sym, l := range lengths {
		rev := bits.Reverse16(next[l]) >> (16 - l)
		next[l]++
		for i := int(rev); i < len(fixedLitLen); i += 1 << l {
			fixedLitLen[i] = uint16(sym)<<4 | uint16(l)
		}
	}
}
