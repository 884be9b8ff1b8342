package pugz_test

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"testing"

	pugz "repro"
	"repro/baseline"
	"repro/internal/blockfind"
	"repro/internal/fastq"
	"repro/internal/framing"
)

// This file is the differential suite for the record-framing layer:
// index-free record extraction (RandomAccess with a Framer) and exact
// record scans (File.Records) over synthetic multi-member,
// stored-block-heavy JSONL/WARC corpora, verified against a
// stdlib-gunzip + reframe oracle.

// gunzipOracle decompresses gz with the standard library (multistream).
func gunzipOracle(t testing.TB, gz []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return plain
}

// multiMemberGz splits data into len(levels) consecutive extents and
// compresses each as an independent gzip member at its level — the
// rotated-log / web-archive shape (level 0 members are all stored
// blocks). It returns the file and the per-member plaintext extent.
func multiMemberGz(t testing.TB, data []byte, levels []int) ([]byte, int) {
	t.Helper()
	per := (len(data) + len(levels) - 1) / len(levels)
	var gz []byte
	for i, l := range levels {
		lo := i * per
		hi := lo + per
		if hi > len(data) {
			hi = len(data)
		}
		m, err := baseline.Compress(data[lo:hi], l)
		if err != nil {
			t.Fatal(err)
		}
		gz = append(gz, m...)
	}
	return gz, per
}

// oracleIndex maps every oracle record's content to its position, so a
// recovered record can be located in the true stream. The generators
// embed unique sequence numbers, so contents are unique.
func oracleIndex(t testing.TB, plain []byte, fr pugz.Framer) ([]pugz.FramedRecord, map[string]int) {
	t.Helper()
	recs := fr.Records(plain, true, true)
	byContent := make(map[string]int, len(recs))
	for i, r := range recs {
		if prev, dup := byContent[string(r.Bytes(plain))]; dup {
			t.Fatalf("oracle records %d and %d not unique", prev, i)
		}
		byContent[string(r.Bytes(plain))] = i
	}
	return recs, byContent
}

func TestRandomAccessRecordsDifferential(t *testing.T) {
	cases := []struct {
		name   string
		data   []byte
		framer pugz.Framer
	}{
		{"jsonl", framing.GenJSONL(12000, 11), pugz.NewlineFraming{ValidateJSON: true}},
		{"log", framing.GenLog(16000, 12), pugz.NewlineFraming{}},
		{"warc", framing.GenWARC(1500, 13), pugz.WARCFraming{}},
	}
	levelSets := [][]int{
		{0, 0, 0, 0},    // stored-block-heavy throughout
		{0, 1, 6, 9},    // mixed members, stored first
		{6, 0, 9, 0, 1}, // stored members interleaved
		{1, 1},
	}
	for _, tc := range cases {
		for _, levels := range levelSets {
			gz, _ := multiMemberGz(t, tc.data, levels)
			_, byContent := oracleIndex(t, gunzipOracle(t, gz), tc.framer)
			for _, off := range []int64{0, int64(len(gz)) / 5, int64(len(gz)) / 2, int64(len(gz)) * 4 / 5} {
				res, err := pugz.RandomAccess(gz, off, pugz.RandomAccessOptions{Framer: tc.framer})
				if err != nil {
					// Near the tail of a sparsely-blocked stream the
					// last block start can precede the offset — sync
					// legitimately fails there (paper Section V).
					if errors.Is(err, blockfind.ErrNotFound) && off > int64(len(gz))*3/4 {
						continue
					}
					t.Fatalf("%s levels %v offset %d: %v", tc.name, levels, off, err)
				}
				allStored := true
				for _, l := range levels {
					if l != 0 {
						allStored = false
					}
				}
				prev := -1
				for i, rec := range res.Records {
					if rec.Undetermined != 0 || bytes.IndexByte(rec.Data, pugz.Undetermined) >= 0 {
						t.Fatalf("%s levels %v offset %d: record %d overlaps a hole: %q",
							tc.name, levels, off, i, rec.Data)
					}
					idx, known := byContent[string(rec.Data)]
					if !known {
						t.Fatalf("%s levels %v offset %d: record %d not in oracle: %q",
							tc.name, levels, off, i, rec.Data)
					}
					if idx <= prev {
						t.Fatalf("%s levels %v offset %d: record order %d after %d", tc.name, levels, off, idx, prev)
					}
					if allStored && prev >= 0 && idx != prev+1 {
						t.Fatalf("%s levels %v offset %d: gap in fully stored stream: %d -> %d",
							tc.name, levels, off, prev, idx)
					}
					prev = idx
				}
				// Recovery is only guaranteed where the context
				// resolves: stored streams (no backrefs) and syncs at
				// the stream head (empty context). Elsewhere a short
				// high-level member may stay all-holes, which is the
				// paper's documented failure mode, not a bug.
				if len(res.Records) == 0 && (allStored || off == 0) {
					t.Fatalf("%s levels %v offset %d: no records recovered", tc.name, levels, off)
				}
				if allStored && res.FirstResolvedBlock < 0 {
					t.Fatalf("%s levels %v offset %d: stored stream not record-resolved", tc.name, levels, off)
				}
			}
		}
	}
}

func TestRecordScanMatchesOracle(t *testing.T) {
	cases := []struct {
		name   string
		data   []byte
		framer pugz.Framer
	}{
		{"jsonl", framing.GenJSONL(3000, 21), pugz.NewlineFraming{ValidateJSON: true}},
		{"warc", framing.GenWARC(500, 22), pugz.WARCFraming{}},
	}
	for _, tc := range cases {
		for _, levels := range [][]int{{0, 1, 6, 9}, {6}} {
			gz, _ := multiMemberGz(t, tc.data, levels)
			plain := gunzipOracle(t, gz)
			want := tc.framer.Records(plain, true, true)

			f, err := pugz.NewFileBytes(gz, pugz.FileOptions{Threads: 2, MinChunk: 32 << 10})
			if err != nil {
				t.Fatal(err)
			}
			sc, err := f.Records(0, pugz.RecordOptions{Framer: tc.framer})
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			for sc.Next() {
				rec := sc.Record()
				if i >= len(want) {
					t.Fatalf("%s levels %v: scanner yielded extra record %d: %q", tc.name, levels, i, rec.Data)
				}
				if rec.Offset != int64(want[i].Start) {
					t.Fatalf("%s levels %v: record %d at offset %d, oracle says %d",
						tc.name, levels, i, rec.Offset, want[i].Start)
				}
				if !bytes.Equal(rec.Data, want[i].Bytes(plain)) {
					t.Fatalf("%s levels %v: record %d content mismatch", tc.name, levels, i)
				}
				i++
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if i != len(want) {
				t.Fatalf("%s levels %v: scanner yielded %d records, oracle %d", tc.name, levels, i, len(want))
			}

			// The whole ascending scan must have cost about one
			// sequential pass — the cursor pool at work.
			if inflated := f.InflatedBytes(); inflated > int64(len(plain))*3/2 {
				t.Fatalf("%s levels %v: scan inflated %d bytes for a %d byte stream",
					tc.name, levels, inflated, len(plain))
			}
		}
	}
}

func TestRecordScanSyncMidStream(t *testing.T) {
	data := framing.GenJSONL(2000, 31)
	gz, _ := multiMemberGz(t, data, []int{0, 6})
	fr := pugz.NewlineFraming{ValidateJSON: true}
	plain := gunzipOracle(t, gz)
	want := fr.Records(plain, true, true)

	f, err := pugz.NewFileBytes(gz, pugz.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	from := int64(len(plain)) / 3 // mid-record with overwhelming probability
	sc, err := f.Records(from, pugz.RecordOptions{Framer: fr, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	var got []pugz.Record
	for sc.Next() {
		got = append(got, sc.Record())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// Expected: exactly the oracle records beginning after from (the
	// record containing from is cut, and a record starting exactly at
	// from has no confirmable left delimiter inside the scan).
	var exp []pugz.FramedRecord
	for _, r := range want {
		if int64(r.Start) > from {
			exp = append(exp, r)
		}
	}
	if len(got) != len(exp) {
		t.Fatalf("synced scan yielded %d records, want %d", len(got), len(exp))
	}
	for i := range exp {
		if got[i].Offset != int64(exp[i].Start) || !bytes.Equal(got[i].Data, exp[i].Bytes(plain)) {
			t.Fatalf("synced record %d mismatch at offset %d", i, got[i].Offset)
		}
	}
}

func TestRecordScanBounded(t *testing.T) {
	data := framing.GenLog(800, 41)
	gz, err := baseline.Compress(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	fr := pugz.NewlineFraming{}
	plain := gunzipOracle(t, gz)
	want := fr.Records(plain, true, true)
	to := int64(want[300].Start)

	f, _ := pugz.NewFileBytes(gz, pugz.FileOptions{})
	sc, err := f.Records(0, pugz.RecordOptions{Framer: fr, To: to})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for sc.Next() {
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Fatalf("bounded scan yielded %d records, want 300", n)
	}
}

func TestRecordScanFASTQMatchesFraming(t *testing.T) {
	// The scanner under the default FASTQ framing must agree with
	// framing the exact plaintext directly.
	data := fastq.Generate(fastq.GenOptions{Reads: 3000, Seed: 51})
	gz, err := baseline.Compress(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	fr := pugz.FASTQFraming{}
	want := fr.Records(data, true, true)

	f, _ := pugz.NewFileBytes(gz, pugz.FileOptions{})
	sc, err := f.Records(0, pugz.RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for sc.Next() {
		rec := sc.Record()
		if i >= len(want) || rec.Offset != int64(want[i].Start) || !bytes.Equal(rec.Data, want[i].Bytes(data)) {
			t.Fatalf("fastq scan record %d diverges from direct framing", i)
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("fastq scan yielded %d records, framing %d", i, len(want))
	}
}

func TestRandomAccessDefaultFramingIsFASTQ(t *testing.T) {
	// A nil Framer is the FASTQ framing at DefaultMinSeqLen (what fqgz
	// passes explicitly): the same records, offsets and holes.
	data := fastq.Generate(fastq.GenOptions{Reads: 4000, Seed: 61})
	gz, err := baseline.Compress(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pugz.RandomAccess(gz, int64(len(gz))/3, pugz.RandomAccessOptions{})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := pugz.RandomAccess(gz, int64(len(gz))/3, pugz.RandomAccessOptions{
		Framer: pugz.FASTQFraming{MinLen: pugz.DefaultMinSeqLen},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(explicit.Records) || len(res.Records) == 0 {
		t.Fatalf("%d default records vs %d explicit", len(res.Records), len(explicit.Records))
	}
	for i, r := range res.Records {
		e := explicit.Records[i]
		if r.Offset != e.Offset || r.Undetermined != e.Undetermined || !bytes.Equal(r.Data, e.Data) {
			t.Fatalf("record %d differs between the default and explicit FASTQ framing", i)
		}
	}
}

func TestAttachIndex(t *testing.T) {
	data := framing.GenJSONL(2000, 71)
	gz, err := baseline.Compress(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pugz.BuildIndex(gz, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	f, err := pugz.NewFileBytes(gz, pugz.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f.AttachIndex(ix)
	got := make([]byte, 1000)
	off := int64(len(data)) / 2
	if _, err := f.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[off:off+1000]) {
		t.Fatal("AttachIndex read mismatch")
	}
	// The typed attach must serve exactly like the blob round-trip.
	blob, err := ix.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := pugz.NewFileBytes(gz, pugz.FileOptions{})
	if err := f2.SetIndex(blob); err != nil {
		t.Fatal(err)
	}
	got2 := make([]byte, 1000)
	if _, err := f2.ReadAt(got2, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, got2) {
		t.Fatal("AttachIndex and SetIndex disagree")
	}
}
