package pugz

import (
	"bytes"
	"testing"

	"repro/baseline"
)

func TestPublicIndexRoundTrip(t *testing.T) {
	data := genFastq(15000, 71)
	gz := gzCorpus(t, 15000, 71, 6)
	ix, err := BuildIndex(gz, 512<<10)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Size() != int64(len(data)) {
		t.Fatalf("Size %d, want %d", ix.Size(), len(data))
	}
	if ix.Checkpoints() < 3 {
		t.Fatalf("checkpoints %d", ix.Checkpoints())
	}
	buf := make([]byte, 4096)
	off := int64(len(data)) / 2
	if _, err := ix.ReadAt(gz, buf, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[off:off+4096]) {
		t.Fatal("ReadAt mismatch")
	}

	blob, err := ix.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := LoadIndex(gz, blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix2.ReadAt(gz, buf, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[off:off+4096]) {
		t.Fatal("ReadAt through loaded index mismatch")
	}
}

func TestPublicBGZF(t *testing.T) {
	data := genFastq(15000, 71)
	bz, err := baseline.CompressBGZF(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !baseline.IsBGZF(bz) {
		t.Fatal("own BGZF output not recognised")
	}
	gz := gzCorpus(t, 15000, 71, 6)
	if baseline.IsBGZF(gz) {
		t.Fatal("plain gzip recognised as BGZF")
	}
	out, err := baseline.DecompressBGZF(bz, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("BGZF roundtrip mismatch")
	}
	buf := make([]byte, 2000)
	off := int64(len(data)) / 3
	if _, err := baseline.BGZFReadAt(bz, buf, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[off:off+2000]) {
		t.Fatal("BGZFReadAt mismatch")
	}
	// A BGZF file is also a valid plain (multi-member) gzip file: the
	// pugz engine itself must decompress it.
	out2, _, err := Decompress(bz, Options{Threads: 2, VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out2, data) {
		t.Fatal("pugz on BGZF mismatch")
	}
}
