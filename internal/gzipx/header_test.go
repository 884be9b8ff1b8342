package gzipx

import (
	"bytes"
	stdgzip "compress/gzip"
	"errors"
	"testing"
)

// buildHeader assembles a raw gzip header with the given flag fields.
func buildHeader(flg byte, extra, name, comment []byte, hcrc bool) []byte {
	h := []byte{0x1f, 0x8b, 8, flg, 0, 0, 0, 0, 0, 255}
	if flg&flgFEXTRA != 0 {
		h = append(h, byte(len(extra)), byte(len(extra)>>8))
		h = append(h, extra...)
	}
	if flg&flgFNAME != 0 {
		h = append(h, name...)
		h = append(h, 0)
	}
	if flg&flgFCOMMENT != 0 {
		h = append(h, comment...)
		h = append(h, 0)
	}
	if hcrc {
		h = append(h, 0xab, 0xcd)
	}
	return h
}

func TestParseHeaderAllFields(t *testing.T) {
	flg := byte(flgFEXTRA | flgFNAME | flgFCOMMENT | flgFHCRC)
	h := buildHeader(flg, []byte{1, 2, 3, 4}, []byte("reads.fastq"), []byte("a comment"), true)
	m, err := ParseHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "reads.fastq" {
		t.Fatalf("name %q", m.Name)
	}
	if m.Comment != "a comment" {
		t.Fatalf("comment %q", m.Comment)
	}
	if m.HeaderLen != len(h) {
		t.Fatalf("header len %d, want %d", m.HeaderLen, len(h))
	}
}

func TestParseHeaderTruncations(t *testing.T) {
	flg := byte(flgFEXTRA | flgFNAME | flgFCOMMENT | flgFHCRC)
	full := buildHeader(flg, []byte{1, 2, 3, 4}, []byte("n"), []byte("c"), true)
	for cut := 0; cut < len(full); cut++ {
		if _, err := ParseHeader(full[:cut]); err == nil {
			t.Fatalf("cut %d accepted", cut)
		}
	}
}

func TestParseHeaderBadMagicAndMethod(t *testing.T) {
	if _, err := ParseHeader([]byte{0x1f, 0x8c, 8, 0, 0, 0, 0, 0, 0, 255}); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
	if _, err := ParseHeader([]byte{0x1f, 0x8b, 7, 0, 0, 0, 0, 0, 0, 255}); !errors.Is(err, ErrBadMethod) {
		t.Fatalf("want ErrBadMethod, got %v", err)
	}
	if _, err := ParseHeader([]byte{0x1f, 0x8b, 8, 0xe0, 0, 0, 0, 0, 0, 255}); !errors.Is(err, ErrBadFlags) {
		t.Fatalf("want ErrBadFlags, got %v", err)
	}
}

// TestParseStdlibHeaders: headers emitted by compress/gzip (with name
// and comment set) must parse.
func TestParseStdlibHeaders(t *testing.T) {
	var buf bytes.Buffer
	zw := stdgzip.NewWriter(&buf)
	zw.Name = "file.txt"
	zw.Comment = "hello"
	if _, err := zw.Write([]byte("payload payload payload")); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := ParseHeader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "file.txt" || m.Comment != "hello" {
		t.Fatalf("parsed %+v", m)
	}
	// And the whole member decompresses.
	if out := inflateMember(t, buf.Bytes()); string(out) != "payload payload payload" {
		t.Fatalf("got %q", out)
	}
}

func TestPayloadBounds(t *testing.T) {
	gz, err := CompressOpts([]byte("data data data data"), Options{Level: 6, Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	start, end, err := PayloadBounds(gz)
	if err != nil {
		t.Fatal(err)
	}
	if start != 12 { // 10-byte fixed header + "x\0"
		t.Fatalf("start %d", start)
	}
	if end != int64(len(gz)-8) {
		t.Fatalf("end %d", end)
	}
}

// TestReadHeaderBGZFLength: a BGZF "BC" subfield declares the member
// length (BSIZE+1) wherever it sits among the FEXTRA subfields; without
// one, or with a malformed field, Length is 0.
func TestReadHeaderBGZFLength(t *testing.T) {
	bc := []byte{'B', 'C', 2, 0, 0x1b, 0x01} // BSIZE 0x011b
	other := []byte{'A', 'p', 3, 0, 1, 2, 3}
	for _, tc := range []struct {
		name  string
		extra []byte
		want  int
	}{
		{"bc only", bc, 0x011c},
		{"after another subfield", append(append([]byte{}, other...), bc...), 0x011c},
		{"no bc", other, 0},
		{"bc with the wrong length", []byte{'B', 'C', 1, 0, 7}, 0},
		{"subfield overrunning the field", []byte{'B', 'C', 9, 0, 1, 2}, 0},
		{"empty", nil, 0},
	} {
		h := buildHeader(flgFEXTRA, tc.extra, nil, nil, false)
		m, err := ParseHeader(h)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if m.Length != tc.want || m.HeaderLen != len(h) {
			t.Fatalf("%s: Length %d HeaderLen %d, want %d and %d", tc.name, m.Length, m.HeaderLen, tc.want, len(h))
		}
		if want := max(tc.want-len(h)-8, 0); m.PayloadLen() != want {
			t.Fatalf("%s: PayloadLen %d, want %d", tc.name, m.PayloadLen(), want)
		}
	}
}
