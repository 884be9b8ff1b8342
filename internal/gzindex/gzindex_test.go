package gzindex

import (
	"bytes"
	stdflate "compress/flate"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/deflate"
	"repro/internal/fastq"
	"repro/internal/flate"
)

func fixture(t testing.TB, reads, level int) (payload, data []byte) {
	t.Helper()
	data = fastq.Generate(fastq.GenOptions{Reads: reads, Seed: 51})
	payload, err := deflate.Compress(data, level)
	if err != nil {
		t.Fatal(err)
	}
	return payload, data
}

func TestBuildAndReadAt(t *testing.T) {
	payload, data := fixture(t, 20000, 6)
	ix, err := Build(payload, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if ix.OutSize != int64(len(data)) {
		t.Fatalf("OutSize %d, want %d", ix.OutSize, len(data))
	}
	if len(ix.Checkpoints) < 5 {
		t.Fatalf("only %d checkpoints", len(ix.Checkpoints))
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 5000)
	for trial := 0; trial < 40; trial++ {
		off := rng.Int63n(int64(len(data)) - int64(len(buf)))
		n, err := ix.ReadAt(payload, buf, off)
		if err != nil {
			t.Fatalf("trial %d off %d: %v", trial, off, err)
		}
		if n != len(buf) {
			t.Fatalf("trial %d: short read %d", trial, n)
		}
		if !bytes.Equal(buf, data[off:off+int64(n)]) {
			t.Fatalf("trial %d off %d: content mismatch", trial, off)
		}
	}
}

func TestReadAtBoundaries(t *testing.T) {
	payload, data := fixture(t, 8000, 6)
	ix, err := Build(payload, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	// Offset 0.
	buf := make([]byte, 100)
	if _, err := ix.ReadAt(payload, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[:100]) {
		t.Fatal("offset 0 mismatch")
	}
	// Tail: short read allowed at EOF.
	n, err := ix.ReadAt(payload, buf, int64(len(data))-10)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 || !bytes.Equal(buf[:10], data[len(data)-10:]) {
		t.Fatalf("tail read n=%d", n)
	}
	// Past end / negative.
	if _, err := ix.ReadAt(payload, buf, int64(len(data))); err == nil {
		t.Fatal("past-end accepted")
	}
	if _, err := ix.ReadAt(payload, buf, -1); err == nil {
		t.Fatal("negative accepted")
	}
}

func TestReadAtExactlyAtCheckpoint(t *testing.T) {
	payload, data := fixture(t, 8000, 6)
	ix, err := Build(payload, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range ix.Checkpoints {
		if cp.Out+50 > int64(len(data)) {
			continue
		}
		buf := make([]byte, 50)
		if _, err := ix.ReadAt(payload, buf, cp.Out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data[cp.Out:cp.Out+50]) {
			t.Fatalf("checkpoint at %d: mismatch", cp.Out)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	payload, data := fixture(t, 10000, 6)
	ix, err := Build(payload, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ix.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Compressed windows should make the index much smaller than raw
	// checkpoints (32 KiB each).
	raw := len(ix.Checkpoints) * 32768
	if len(blob) > raw {
		t.Fatalf("index %d bytes not smaller than raw %d", len(blob), raw)
	}
	ix2, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.OutSize != ix.OutSize || ix2.EndBit != ix.EndBit || len(ix2.Checkpoints) != len(ix.Checkpoints) {
		t.Fatal("metadata mismatch")
	}
	for i := range ix.Checkpoints {
		a, b := ix.Checkpoints[i], ix2.Checkpoints[i]
		if a.Bit != b.Bit || a.Out != b.Out || !bytes.Equal(a.Window, b.Window) {
			t.Fatalf("checkpoint %d mismatch", i)
		}
	}
	// And the deserialised index must serve reads.
	buf := make([]byte, 1000)
	off := int64(len(data) / 2)
	if _, err := ix2.ReadAt(payload, buf, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[off:off+1000]) {
		t.Fatal("read through deserialised index mismatch")
	}
}

// v1Blob serialises ix as a v1 sidecar whose windows compress wrote,
// laid out as Marshal lays them out.
func v1Blob(t *testing.T, ix *Index, compress func([]byte) ([]byte, error)) []byte {
	t.Helper()
	blob := append([]byte(magic), version, flagDeflate)
	blob = binary.LittleEndian.AppendUint64(blob, uint64(ix.OutSize))
	blob = binary.LittleEndian.AppendUint64(blob, uint64(ix.EndBit))
	blob = binary.LittleEndian.AppendUint32(blob, uint32(len(ix.Checkpoints)))
	for _, cp := range ix.Checkpoints {
		blob = binary.LittleEndian.AppendUint64(blob, uint64(cp.Bit))
		blob = binary.LittleEndian.AppendUint64(blob, uint64(cp.Out))
		w, err := compress(cp.Window)
		if err != nil {
			t.Fatal(err)
		}
		blob = binary.LittleEndian.AppendUint32(blob, uint32(len(w)))
		blob = append(blob, w...)
	}
	return blob
}

// checkLoads unmarshals blob and checks it holds ix's windows and
// serves a read of payload like ix does.
func checkLoads(t *testing.T, blob []byte, ix *Index, payload, data []byte) {
	t.Helper()
	ix2, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix2.Checkpoints) != len(ix.Checkpoints) {
		t.Fatalf("%d checkpoints, want %d", len(ix2.Checkpoints), len(ix.Checkpoints))
	}
	for i := range ix.Checkpoints {
		if !bytes.Equal(ix2.Checkpoints[i].Window, ix.Checkpoints[i].Window) {
			t.Fatalf("checkpoint %d window mismatch", i)
		}
	}
	buf := make([]byte, 1000)
	off := int64(len(data)) * 3 / 4
	if _, err := ix2.ReadAt(payload, buf, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[off:off+1000]) {
		t.Fatal("read through the loaded index mismatch")
	}
}

// TestUnmarshalOwnDeflateWindows: sidecars whose windows were
// compressed by this repository's own DEFLATE writer (how Marshal wrote
// them before it used the standard library) must still load and serve
// reads: the format records only that windows are deflated.
func TestUnmarshalOwnDeflateWindows(t *testing.T) {
	payload, data := fixture(t, 10000, 6)
	ix, err := Build(payload, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	checkLoads(t, v1Blob(t, ix, func(w []byte) ([]byte, error) { return deflate.Compress(w, 6) }), ix, payload, data)
}

// TestUnmarshalLevel6Windows: sidecars whose windows the standard
// library deflated at level 6 (how Marshal wrote them before it moved
// to BestSpeed) load to the same windows and serve the same bytes.
func TestUnmarshalLevel6Windows(t *testing.T) {
	payload, data := fixture(t, 10000, 6)
	ix, err := Build(payload, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	blob := v1Blob(t, ix, func(w []byte) ([]byte, error) {
		var buf bytes.Buffer
		zw, err := stdflate.NewWriter(&buf, 6)
		if err != nil {
			return nil, err
		}
		zw.Write(w)
		err = zw.Close()
		return buf.Bytes(), err
	})
	checkLoads(t, blob, ix, payload, data)
}

// TestMarshalSameAtAnyParallelism: windows are deflated on up to
// GOMAXPROCS goroutines, and the blob is byte-identical whatever that
// is.
func TestMarshalSameAtAnyParallelism(t *testing.T) {
	payload, _ := fixture(t, 10000, 6)
	ix, err := Build(payload, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var blobs [2][]byte
	for i, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		if blobs[i], err = ix.Marshal(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatalf("Marshal at GOMAXPROCS 1 (%d B) and 4 (%d B) differ", len(blobs[0]), len(blobs[1]))
	}
}

// TestMarshalWindowsCompress: on FASTQ a deflated window averages well
// under half its 32 KiB, so a writer that stores windows raw or codes
// them Huffman-only fails here.
func TestMarshalWindowsCompress(t *testing.T) {
	payload, _ := fixture(t, 10000, 6)
	ix, err := Build(payload, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ix.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	n := len(ix.Checkpoints)
	const header, perCheckpoint = 4 + 2 + 8 + 8 + 4, 8 + 8 + 4
	mean := (len(blob) - header - n*perCheckpoint) / n
	if mean > 16<<10 {
		t.Fatalf("%d windows average %d B deflated, want <= %d", n, mean, 16<<10)
	}
	t.Logf("%d windows, %d B each deflated on average", n, mean)
}

func TestUnmarshalErrors(t *testing.T) {
	payload, _ := fixture(t, 2000, 6)
	ix, _ := Build(payload, 128<<10)
	blob, _ := ix.Marshal()
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XXXX"), blob[4:]...),
		"truncated": blob[:len(blob)/2],
		"bad ver":   append([]byte("GZIX\x09"), blob[5:]...),
	}
	for name, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBuildDefaultSpacing(t *testing.T) {
	payload, _ := fixture(t, 20000, 6)
	ix, err := Build(payload, 0)
	if err != nil {
		t.Fatal(err)
	}
	// ~10 MB output at 1 MiB spacing: around 10 checkpoints.
	if len(ix.Checkpoints) < 3 || len(ix.Checkpoints) > 30 {
		t.Fatalf("%d checkpoints at default spacing", len(ix.Checkpoints))
	}
}

// TestInflateFullSpanKeepsPresizedBuffer: a whole-span fill decodes
// into the buffer inflate sized for it (history, span and the kernel's
// slack) and never grows it, so span fills and the decoded spans the
// serving cache keeps stay span-sized.
func TestInflateFullSpanKeepsPresizedBuffer(t *testing.T) {
	payload, data := fixture(t, 8000, 6)
	ix, err := Build(payload, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	src := func(lo, hi int64) ([]byte, error) { return payload[lo:hi], nil }
	for i, cp := range ix.Checkpoints {
		_, end := ix.spanEnd(i)
		span := end - cp.Out
		hist := int(min(int64(len(cp.Window)), cp.Out))
		var buf []byte
		out, err := ix.inflate(i, src, span, &buf)
		if err != nil || !bytes.Equal(out, data[cp.Out:end]) {
			t.Fatalf("span %d: err=%v, output equal=%v", i, err, bytes.Equal(out, data[cp.Out:end]))
		}
		if room := hist + int(span) + flate.FastSlack; cap(buf) != room {
			t.Fatalf("span %d: buffer cap %d, want the presized %d", i, cap(buf), room)
		}
		if cap(out) != cap(buf)-hist || &out[0] != &buf[hist] {
			t.Fatalf("span %d: output is not backed by the presized buffer", i)
		}
	}
}
