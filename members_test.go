package pugz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"strings"
	"testing"

	"repro/baseline"
	"repro/internal/bitio"
	"repro/internal/gzipx"
)

// TestGunzipSequentialCorruptTrailer: a flipped CRC-32 byte and a
// flipped ISIZE byte each fail with ErrChecksum, naming the field.
func TestGunzipSequentialCorruptTrailer(t *testing.T) {
	gz, err := baseline.Compress([]byte("some content to compress some content"), 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		at    int // byte from the end
		field string
	}{{7, ": CRC-32"}, {1, ": ISIZE"}} {
		corrupt := bytes.Clone(gz)
		corrupt[len(corrupt)-tc.at] ^= 0xff
		_, err := GunzipSequential(corrupt)
		if !errors.Is(err, ErrChecksum) || !strings.HasSuffix(err.Error(), tc.field) {
			t.Fatalf("byte %d from the end flipped: want ErrChecksum%s, got %v", tc.at, tc.field, err)
		}
	}
}

// TestGunzipSequentialTruncatedTrailer: a trailer cut short is a
// truncated member, not a clean end.
func TestGunzipSequentialTruncatedTrailer(t *testing.T) {
	gz, err := baseline.Compress([]byte("some content to compress"), 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GunzipSequential(gz[:len(gz)-3]); !errors.Is(err, gzipx.ErrTruncated) {
		t.Fatalf("truncated trailer: want ErrTruncated, got %v", err)
	}
}

// fixedMember hand-encodes a gzip member of one final fixed-Huffman
// block: the literals lits (each below 144), one match of length 3 at
// distance 1, and the end of block. content is what the member decodes
// to, for its trailer.
func fixedMember(lits, content []byte) []byte {
	w := bitio.NewWriter(64)
	code := func(c uint32, n uint) { // Huffman codes go most-significant bit first
		w.WriteBits(bits.Reverse32(c)>>(32-n), n)
	}
	w.WriteBits(1, 1) // BFINAL
	w.WriteBits(1, 2) // BTYPE 01: fixed Huffman
	for _, b := range lits {
		code(0x30+uint32(b), 8)
	}
	code(257-256, 7) // length 3
	code(0, 5)       // distance 1
	code(256-256, 7) // end of block
	m := []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255}
	m = append(m, w.Bytes()...)
	m = binary.LittleEndian.AppendUint32(m, crc32.ChecksumIEEE(content))
	return binary.LittleEndian.AppendUint32(m, uint32(len(content)))
}

// TestMemberBackReferenceAcrossBoundary: a member's first match cannot
// reach into the member before it, even though every member decodes
// into one output buffer. The second member opens with length 3 at
// distance 1, which only the first member's last byte could satisfy
// (and its trailer matches the bytes that would give). Every surface
// rejects it, as the standard library does; the same file whose second
// member opens with a literal decodes byte-identically.
func TestMemberBackReferenceAcrossBoundary(t *testing.T) {
	first := genFastq(2000, 91)
	m1 := gzCorpus(t, 2000, 91, 6)
	last := first[len(first)-1]
	bad := append(bytes.Clone(m1), fixedMember(nil, bytes.Repeat([]byte{last}, 3))...)
	good := append(bytes.Clone(m1), fixedMember([]byte{last}, bytes.Repeat([]byte{last}, 4))...)
	want := append(bytes.Clone(first), bytes.Repeat([]byte{last}, 4)...)
	if _, err := stdGunzip(bad); err == nil {
		t.Fatal("stdlib accepted the cross-member reference")
	}
	if got, err := stdGunzip(good); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("stdlib on the valid file: err=%v, output equal=%v", err, bytes.Equal(got, want))
	}

	surfaces := map[string]func(gz []byte) ([]byte, error){
		"GunzipSequential": GunzipSequential,
		"NewReader": func(gz []byte) ([]byte, error) {
			return streamDecompress(t, gz, StreamOptions{Threads: 2, MinChunk: 16 << 10})
		},
		"File.ReadAt": func(gz []byte) ([]byte, error) {
			f, err := NewFileBytes(gz, FileOptions{Threads: 2, MinChunk: 16 << 10})
			if err != nil {
				return nil, err
			}
			defer f.Close()
			p := make([]byte, len(want))
			n, err := f.ReadAt(p, 0)
			if errors.Is(err, io.EOF) && n == len(p) {
				err = nil
			}
			return p[:n], err
		},
	}
	for _, threads := range []int{1, 2} {
		for _, verify := range []bool{false, true} {
			o := Options{Threads: threads, MinChunk: 16 << 10, VerifyChecksums: verify}
			surfaces[fmt.Sprintf("Decompress T=%d verify=%v", threads, verify)] = func(gz []byte) ([]byte, error) {
				out, _, err := Decompress(gz, o)
				return out, err
			}
		}
	}
	for name, decode := range surfaces {
		if _, err := decode(bad); err == nil || errors.Is(err, io.EOF) {
			t.Errorf("%s: the cross-member reference decoded (err %v)", name, err)
		}
		if got, err := decode(good); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s on the valid file: err=%v, output equal=%v", name, err, bytes.Equal(got, want))
		}
	}
}
