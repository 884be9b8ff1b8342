package gzipx

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"

	"repro/baseline"
)

// TestReadHeaderAgreesWithParseHeader: the incremental reader-based
// parser must consume exactly the bytes ParseHeader counts and yield
// the same fields, for every optional-field combination.
func TestReadHeaderAgreesWithParseHeader(t *testing.T) {
	payload := []byte{0x03, 0x00} // empty final block; content is irrelevant
	cases := map[string][]byte{
		"plain": mustMember(t, 6, ""),
		"named": mustMember(t, 1, "reads.fastq"),
	}
	// Hand-built header with FEXTRA, FCOMMENT and FHCRC, which
	// baseline.CompressNamed never emits.
	full := []byte{
		0x1f, 0x8b, 8, flgFEXTRA | flgFNAME | flgFCOMMENT | flgFHCRC,
		0, 0, 0, 0, 0, 255,
		3, 0, 'x', 'y', 'z', // FEXTRA: XLEN=3
		'n', 'a', 'm', 'e', 0, // FNAME
		'c', 0, // FCOMMENT
		0xaa, 0xbb, // FHCRC (unverified)
	}
	cases["full"] = append(append([]byte{}, full...), payload...)

	for name, data := range cases {
		want, err := ParseHeader(data)
		if err != nil {
			t.Fatalf("%s: ParseHeader: %v", name, err)
		}
		br := bytes.NewReader(data)
		got, err := ReadHeader(br)
		if err != nil {
			t.Fatalf("%s: ReadHeader: %v", name, err)
		}
		if got != want {
			t.Fatalf("%s: %+v != %+v", name, got, want)
		}
		if consumed := len(data) - br.Len(); consumed != want.HeaderLen {
			t.Fatalf("%s: consumed %d bytes, header is %d", name, consumed, want.HeaderLen)
		}
	}
}

func TestReadHeaderErrors(t *testing.T) {
	good := mustMember(t, 6, "n")
	for name, data := range map[string][]byte{
		"empty":         nil,
		"short":         good[:4],
		"mid-name":      good[:11],
		"bad magic":     []byte("PK\x03\x04 not gzip"),
		"bad method":    {0x1f, 0x8b, 7, 0, 0, 0, 0, 0, 0, 255},
		"reserved flag": {0x1f, 0x8b, 8, 0x80, 0, 0, 0, 0, 0, 255},
	} {
		if _, err := ReadHeader(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	if _, err := ReadHeader(bytes.NewReader(good[:4])); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated header: %v", err)
	}
}

func TestReadTrailer(t *testing.T) {
	m := mustMember(t, 6, "")
	tr := m[len(m)-8:]
	crc, isize, err := ReadTrailer(bytes.NewReader(tr))
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against the content the member was compressed from.
	content := stdGunzip(t, m)
	if uint32(len(content)) != isize || crc != crc32.ChecksumIEEE(content) {
		t.Fatalf("trailer crc %08x isize %d, content has %08x and %d", crc, isize, crc32.ChecksumIEEE(content), len(content))
	}
	if _, _, err := ReadTrailer(bytes.NewReader(tr[:5])); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short trailer: %v", err)
	}
}

// mustMember compresses a short text into one gzip member with FNAME
// name (none when empty).
func mustMember(t *testing.T, level int, name string) []byte {
	t.Helper()
	gz, err := baseline.CompressNamed([]byte("GATTACA GATTACA GATTACA\n"), level, name)
	if err != nil {
		t.Fatal(err)
	}
	return gz
}
