// Package gzipx implements the gzip container format (RFC 1952) around
// internal/deflate: member headers with optional fields, CRC-32 + ISIZE
// trailers, and the XFL-based compression-level classification that
// the UNIX file command (and Section VII-A of the paper) uses to
// partition datasets into lowest / normal / highest compression levels.
// Decoding members is the root package's one member loop.
package gzipx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/deflate"
	"repro/internal/flate"
)

const (
	id1       = 0x1f
	id2       = 0x8b
	cmDeflate = 8

	flgFTEXT    = 1 << 0
	flgFHCRC    = 1 << 1
	flgFEXTRA   = 1 << 2
	flgFNAME    = 1 << 3
	flgFCOMMENT = 1 << 4
)

// Errors surfaced by the parser.
var (
	ErrBadMagic  = errors.New("gzipx: not a gzip file (bad magic)")
	ErrBadMethod = errors.New("gzipx: unsupported compression method")
	ErrTruncated = errors.New("gzipx: truncated member")
	ErrBadFlags  = errors.New("gzipx: reserved flag bits set")
)

// Member describes one gzip member's framing within a file.
type Member struct {
	// HeaderLen is the byte length of the member header; the DEFLATE
	// payload begins at this offset from the member start.
	HeaderLen int
	// Length is the member's total byte length (header, payload and
	// trailer) declared by a BGZF "BC" extra subfield (BSIZE+1), or 0
	// when the header carries none. It is a claim, not a measurement:
	// decoders may plan with it but must not trust it.
	Length  int
	XFL     byte
	OS      byte
	Name    string
	Comment string
}

// PayloadLen returns the compressed payload length the header declares
// (Length less the header and the 8-byte trailer), or 0 when it
// declares none (or an impossible one).
func (m Member) PayloadLen() int {
	if n := m.Length - m.HeaderLen - 8; n > 0 {
		return n
	}
	return 0
}

// CompressionClass partitions gzip files the way `file` does, from the
// XFL byte: 4 = fastest (gzip -1), 2 = maximum (gzip -9), 0 = anything
// between. Table I of the paper uses exactly this partition.
type CompressionClass int

const (
	ClassNormal CompressionClass = iota
	ClassLowest
	ClassHighest
)

func (c CompressionClass) String() string {
	switch c {
	case ClassLowest:
		return "lowest"
	case ClassHighest:
		return "highest"
	default:
		return "normal"
	}
}

// ClassifyXFL maps the XFL header byte to a CompressionClass.
func ClassifyXFL(xfl byte) CompressionClass {
	switch xfl {
	case 4:
		return ClassLowest
	case 2:
		return ClassHighest
	default:
		return ClassNormal
	}
}

// xflForLevel mirrors gzip: XFL=2 at maximum compression, XFL=4 at
// fastest, 0 otherwise.
func xflForLevel(level int) byte {
	switch {
	case level >= 9:
		return 2
	case level == 1:
		return 4
	default:
		return 0
	}
}

// ParseHeader parses a member header at the start of data. It is
// ReadHeader over the slice: both paths share one parser so the
// streaming and whole-file layers can never diverge.
func ParseHeader(data []byte) (Member, error) {
	return ReadHeader(bytes.NewReader(data))
}

// Options controls member creation.
type Options struct {
	Level int    // 0..9; 0 = stored
	Name  string // optional FNAME
}

// Compress produces a complete single-member gzip file from data.
func Compress(data []byte, level int) ([]byte, error) {
	return CompressOpts(data, Options{Level: level})
}

// CompressOpts produces a complete single-member gzip file.
func CompressOpts(data []byte, o Options) ([]byte, error) {
	if o.Level < 0 || o.Level > 9 {
		return nil, fmt.Errorf("gzipx: level %d out of range [0,9]", o.Level)
	}
	payload, err := deflate.Compress(data, o.Level)
	if err != nil {
		return nil, err
	}
	flg := byte(0)
	if o.Name != "" {
		flg |= flgFNAME
	}
	out := make([]byte, 0, len(payload)+32+len(o.Name))
	out = append(out, id1, id2, cmDeflate, flg,
		0, 0, 0, 0, // MTIME: zero for determinism
		xflForLevel(o.Level), 255 /* OS unknown */)
	if o.Name != "" {
		out = append(out, o.Name...)
		out = append(out, 0)
	}
	out = append(out, payload...)
	var tr [8]byte
	binary.LittleEndian.PutUint32(tr[0:4], crc32.ChecksumIEEE(data))
	binary.LittleEndian.PutUint32(tr[4:8], uint32(len(data)))
	out = append(out, tr[:]...)
	return out, nil
}

// maxHintRatio caps SizeHint at this multiple of the compressed bytes,
// so a forged trailer reserves at most that much memory.
const maxHintRatio = 16

// SizeHint returns the capacity to presize a gzip file's output with:
// its last ISIZE, clamped to maxHintRatio times len(file), plus the
// room the decoder's fast loop needs past the last byte (0 when ISIZE
// is 0). ISIZE is exact only for one member under 4 GiB, so the hint
// never decides bytes.
func SizeHint(file []byte) int {
	if len(file) < 4 {
		return 0
	}
	isize := int64(binary.LittleEndian.Uint32(file[len(file)-4:]))
	if isize == 0 {
		return 0
	}
	return int(min(isize, int64(len(file))*maxHintRatio)) + flate.FastSlack
}

// PayloadBounds returns the byte range [start,end) of the DEFLATE
// stream of the first member of a gzip file, without decompressing.
// For single-member files end is len(data)-8 (the trailer).
func PayloadBounds(data []byte) (start, end int64, err error) {
	m, err := ParseHeader(data)
	if err != nil {
		return 0, 0, err
	}
	if len(data) < m.HeaderLen+8 {
		return 0, 0, ErrTruncated
	}
	return int64(m.HeaderLen), int64(len(data) - 8), nil
}
