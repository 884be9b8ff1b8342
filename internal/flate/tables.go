// Package flate implements a DEFLATE (RFC 1951) token-stream decoder.
//
// Unlike compress/flate in the standard library, this decoder exposes
// the structure the pugz algorithm needs: exact bit positions of block
// boundaries, the literal/match token stream (so a symbolic context
// can be threaded through decompression), and a stringent validation
// mode used by internal/blockfind to reject false block starts early
// (Appendix X-A of the paper).
package flate

import (
	"sync"

	"repro/internal/huffman"
)

// Block types as encoded in the 2-bit BTYPE field.
type BlockType uint8

const (
	Stored  BlockType = 0
	Fixed   BlockType = 1
	Dynamic BlockType = 2
)

func (t BlockType) String() string {
	switch t {
	case Stored:
		return "stored"
	case Fixed:
		return "fixed"
	case Dynamic:
		return "dynamic"
	}
	return "invalid"
}

const (
	// WindowSize is the DEFLATE sliding-window size: back-references
	// never reach farther than this many bytes.
	WindowSize = 32 * 1024

	// MinMatch and MaxMatch bound DEFLATE match lengths.
	MinMatch = 3
	MaxMatch = 258

	// endOfBlock is the literal/length symbol terminating every block.
	endOfBlock = 256

	// maxLitLenSyms / maxDistSyms are the alphabet sizes.
	maxLitLenSyms = 288
	maxDistSyms   = 32
	// maxLitLenCodes / maxDistCodes are the most codes a dynamic header
	// may declare under Validate (HLIT, HDIST <= 29): symbols 286, 287,
	// 30 and 31 never occur in a valid stream.
	maxLitLenCodes = 286
	maxDistCodes   = 30
	// numCodeLenSyms is the size of the code-length alphabet used to
	// compress the dynamic-tree description itself.
	numCodeLenSyms = 19
)

// lengthBase/lengthExtra: match length decode for symbols 257..285.
// Symbol 284 with all extra bits set would be 258+? — RFC: 284 covers
// 227..257 with 5 extra bits, 285 is exactly 258 with 0 extra.
var lengthBase = [29]uint16{
	3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
	35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258,
}

var lengthExtra = [29]uint8{
	0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
	3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
}

// distBase/distExtra: distance decode for symbols 0..29.
var distBase = [30]uint32{
	1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
	257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145,
	8193, 12289, 16385, 24577,
}

var distExtra = [30]uint8{
	0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
	7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
}

// codeLenOrder is the famous permutation in which code-length code
// lengths are transmitted (RFC 1951 section 3.2.7).
var codeLenOrder = [numCodeLenSyms]uint8{
	16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
}

// fixedLitLenLengths returns the code lengths of the fixed
// literal/length tree (section 3.2.6).
func fixedLitLenLengths() []uint8 {
	l := make([]uint8, maxLitLenSyms)
	for i := 0; i <= 143; i++ {
		l[i] = 8
	}
	for i := 144; i <= 255; i++ {
		l[i] = 9
	}
	for i := 256; i <= 279; i++ {
		l[i] = 7
	}
	for i := 280; i <= 287; i++ {
		l[i] = 8
	}
	return l
}

// fixedDistLengths returns the code lengths of the fixed distance tree:
// all 32 symbols get 5 bits (symbols 30 and 31 never occur in valid
// streams but participate in the code space).
func fixedDistLengths() []uint8 {
	l := make([]uint8, maxDistSyms)
	for i := range l {
		l[i] = 5
	}
	return l
}

// fixedTables returns the shared decode tables of the fixed trees,
// built on first use. They are immutable afterwards and safe for
// concurrent Decode calls, so every decoder (and every block-scanner
// probe, which hits BTYPE=01 on ~a quarter of all candidate bit
// offsets) shares one copy instead of rebuilding them per block.
func fixedTables() (litLen, dist *huffman.Decoder) {
	fixedOnce.Do(func() {
		var err error
		if err = fixedLit.Init(fixedLitLenLengths(), false); err == nil {
			err = fixedDist.Init(fixedDistLengths(), true)
		}
		if err != nil {
			panic("flate: fixed trees: " + err.Error()) // static tables; cannot fail
		}
	})
	return &fixedLit, &fixedDist
}

var (
	fixedOnce sync.Once
	fixedLit  huffman.Decoder
	fixedDist huffman.Decoder
)

// fixedFastTables returns the shared multi-symbol fast tables of the
// fixed trees, built on first use and immutable afterwards. Lookups
// are plain slice reads, so concurrent fast loops share one copy.
func fixedFastTables() (*huffman.LitLenFast, *huffman.DistFast) {
	fixedFastOnce.Do(func() {
		var err error
		if err = fixedFastLit.Init(fixedLitLenLengths(), lengthBase[:], lengthExtra[:]); err == nil {
			err = fixedFastDist.Init(fixedDistLengths(), distBase[:], distExtra[:])
		}
		if err != nil {
			panic("flate: fixed fast trees: " + err.Error()) // static tables; cannot fail
		}
	})
	return &fixedFastLit, &fixedFastDist
}

var (
	fixedFastOnce sync.Once
	fixedFastLit  huffman.LitLenFast
	fixedFastDist huffman.DistFast
)
