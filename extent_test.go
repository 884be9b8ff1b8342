package pugz

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// forgeBSIZE returns a copy of the BGZF file gz with every member's
// BSIZE field replaced by bsize(true BSIZE, member offset).
func forgeBSIZE(gz []byte, bsize func(orig, off int) int) []byte {
	f := bytes.Clone(gz)
	for off := 0; off < len(f); {
		orig := int(binary.LittleEndian.Uint16(gz[off+16:]))
		binary.LittleEndian.PutUint16(f[off+16:], uint16(bsize(orig, off)))
		off += orig + 1
	}
	return f
}

// TestForgedBGZFExtent: a BGZF member's declared length only plans the
// decode (no span past it); it never cuts the bytes decoded. Forged
// BSIZE values — absent (0), too small, too large, past the end of the
// file — leave the output identical to stdlib's, at one and two
// threads, through Decompress and NewReader. Small spans make the
// too-large extents plan speculative spans into the next members.
func TestForgedBGZFExtent(t *testing.T) {
	data := jsonlText(300_000, 7)
	gz := bgzfStd(t, data)
	for _, tc := range []struct {
		name  string
		bsize func(orig, off int) int
	}{
		{"zero", func(int, int) int { return 0 }},
		{"too small", func(orig, _ int) int { return orig / 2 }},
		{"too large", func(orig, _ int) int { return min(3*orig, 0xffff) }},
		{"past EOF", func(_, off int) int { return min(len(gz)-off+4096, 0xffff) }},
	} {
		forged := forgeBSIZE(gz, tc.bsize)
		if want, err := stdGunzip(forged); err != nil || !bytes.Equal(want, data) {
			t.Fatalf("%s: stdlib reads the forged file differently (%v)", tc.name, err)
		}
		for _, threads := range []int{1, 2} {
			out, _, err := Decompress(forged, Options{Threads: threads, MinChunk: 4 << 10})
			if err != nil || !bytes.Equal(out, data) {
				t.Fatalf("%s T=%d: Decompress err=%v, equal=%v", tc.name, threads, err, bytes.Equal(out, data))
			}
			r, err := NewReader(bytes.NewReader(forged), StreamOptions{
				Threads: threads, MinChunk: 4 << 10, BatchCompressedBytes: 64 << 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			out, err = io.ReadAll(r)
			r.Close()
			if err != nil || !bytes.Equal(out, data) {
				t.Fatalf("%s T=%d: NewReader err=%v, equal=%v", tc.name, threads, err, bytes.Equal(out, data))
			}
		}
	}
}
