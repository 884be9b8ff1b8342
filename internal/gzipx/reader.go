package gzipx

import (
	"encoding/binary"
	"fmt"
	"io"
)

// ReadHeader parses one member header from br, consuming exactly the
// header's bytes. Unlike ParseHeader it needs no slice of the file:
// streaming callers hand it the head of their buffered source window.
// A source that ends mid-header yields ErrTruncated; other source
// errors pass through.
func ReadHeader(br io.ByteReader) (Member, error) {
	var m Member
	next := func() (byte, error) {
		b, err := br.ReadByte()
		if err == io.EOF {
			return 0, ErrTruncated
		}
		return b, err
	}
	var fixed [10]byte
	for i := range fixed {
		b, err := next()
		if err != nil {
			return m, err
		}
		fixed[i] = b
	}
	if fixed[0] != id1 || fixed[1] != id2 {
		return m, ErrBadMagic
	}
	if fixed[2] != cmDeflate {
		return m, fmt.Errorf("%w: CM=%d", ErrBadMethod, fixed[2])
	}
	flg := fixed[3]
	if flg&0xe0 != 0 {
		return m, ErrBadFlags
	}
	m.XFL = fixed[8]
	m.OS = fixed[9]
	n := 10
	if flg&flgFEXTRA != 0 {
		lo, err := next()
		if err != nil {
			return m, err
		}
		hi, err := next()
		if err != nil {
			return m, err
		}
		xlen := int(binary.LittleEndian.Uint16([]byte{lo, hi}))
		extra := make([]byte, xlen)
		for i := range extra {
			if extra[i], err = next(); err != nil {
				return m, err
			}
		}
		m.Length = bgzfLength(extra)
		n += 2 + xlen
	}
	readZString := func() (string, error) {
		var s []byte
		for {
			b, err := next()
			if err != nil {
				return "", err
			}
			n++
			if b == 0 {
				return string(s), nil
			}
			s = append(s, b)
		}
	}
	if flg&flgFNAME != 0 {
		s, err := readZString()
		if err != nil {
			return m, err
		}
		m.Name = s
	}
	if flg&flgFCOMMENT != 0 {
		s, err := readZString()
		if err != nil {
			return m, err
		}
		m.Comment = s
	}
	if flg&flgFHCRC != 0 {
		for i := 0; i < 2; i++ {
			if _, err := next(); err != nil {
				return m, err
			}
		}
		n += 2
	}
	m.HeaderLen = n
	return m, nil
}

// bgzfLength returns the member length a BGZF "BC" subfield of the
// FEXTRA field declares (BSIZE+1), or 0 when there is none. Subfields
// are SI1 SI2 LEN(2, little-endian) followed by LEN data bytes.
func bgzfLength(extra []byte) int {
	for len(extra) >= 4 {
		slen := int(binary.LittleEndian.Uint16(extra[2:]))
		if len(extra) < 4+slen {
			return 0
		}
		if extra[0] == 'B' && extra[1] == 'C' && slen == 2 {
			return int(binary.LittleEndian.Uint16(extra[4:])) + 1
		}
		extra = extra[4+slen:]
	}
	return 0
}

// ReadTrailer parses one member trailer (CRC-32 then ISIZE, both
// little-endian) from br, consuming exactly 8 bytes. A source that
// ends early yields ErrTruncated.
func ReadTrailer(br io.ByteReader) (crc, isize uint32, err error) {
	var tr [8]byte
	for i := range tr {
		b, e := br.ReadByte()
		if e == io.EOF {
			return 0, 0, ErrTruncated
		}
		if e != nil {
			return 0, 0, e
		}
		tr[i] = b
	}
	return binary.LittleEndian.Uint32(tr[0:4]), binary.LittleEndian.Uint32(tr[4:8]), nil
}
