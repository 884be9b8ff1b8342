package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/fastq"
)

// TestPipelineWindowGrowthOnBinaryData: high-entropy binary content
// fails the stringent text checks block detection relies on, so no
// interior chunk boundary is ever confirmed. A batch needs none to end:
// its exact decode stops at the first block past the batch end, where
// the next batch starts. So the stream must decode exactly, in many
// batches, without the compressed window ever growing past its floor
// (batch + batchSlack + one read).
func TestPipelineWindowGrowthOnBinaryData(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 384<<10)
	rng.Read(data)
	payload := mustCompress(t, data, 1)
	const batch, readSize = 64 << 10, 16 << 10
	if len(payload) < batch+batchSlack+readSize {
		t.Fatalf("payload too small (%d) to outgrow the window floor", len(payload))
	}
	p := NewPipeline(bytes.NewReader(payload), PipelineOptions{
		Threads:              4,
		BatchCompressedBytes: batch,
		MinChunk:             8 << 10,
		ReadSize:             readSize,
		MaxWindowBytes:       1, // clamped to the floor: batch + batchSlack
	})
	defer p.Close()
	var got []byte
	if _, err := p.RunMember(func(b []byte) error { got = append(got, b...); return nil }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("binary stream mismatch (%d vs %d bytes)", len(got), len(data))
	}
	if p.BatchCount() < 2 {
		t.Fatalf("%d batches, want the stream split into several", p.BatchCount())
	}
	if peak, floor := p.Window().MaxBuffered(), int64(batch+batchSlack+readSize); peak > floor {
		t.Fatalf("compressed window grew to %d, floor %d", peak, floor)
	}
}

// TestSpanSyncEndsWithoutProbe: the end of a plan is never probed and
// no probe leaves its span. A one-span run syncs nothing; every later
// chunk starts inside its own span; the last span decodes to the final
// block (no probe past it); and on binary input, where no probe ever
// confirms, the probes together try at most one candidate per payload
// bit — an unbounded probe k would scan to the end of the payload.
// Sequential mode runs every probe to completion, so the counts do not
// depend on how fast the resolver overtakes a worker.
func TestSpanSyncEndsWithoutProbe(t *testing.T) {
	text := mustCompress(t, corpusFastq(20000, 3), 6)
	noise := make([]byte, 1<<20)
	rand.New(rand.NewSource(9)).Read(noise)
	binary := mustCompress(t, noise, 6)
	for _, tc := range []struct {
		name    string
		payload []byte
		threads int
		chunks  int // 0 = more than one
	}{
		{"one chunk", text, 1, 1},
		{"text", text, 4, 0},
		{"binary", binary, 4, 0},
	} {
		o := Options{Threads: tc.threads, MinChunk: 16 << 10, Sequential: true}
		out, m, err := DecompressPayload(tc.payload, o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.chunks > 0 && len(m.Chunks) != tc.chunks || tc.chunks == 0 && len(m.Chunks) < 2 {
			t.Fatalf("%s: %d chunks", tc.name, len(m.Chunks))
		}
		if tc.threads == 1 && m.Work.BitsTried != 0 {
			t.Fatalf("%s: a one-span run tried %d sync offsets", tc.name, m.Work.BitsTried)
		}
		if m.Work.BitsTried > int64(len(tc.payload))*8 {
			t.Fatalf("%s: %d sync offsets tried over a %d-bit payload", tc.name, m.Work.BitsTried, len(tc.payload)*8)
		}
		span := int64(len(tc.payload) / tc.threads)
		for i, c := range m.Chunks[1:] {
			if lo := c.StartBit / 8 / span; lo > int64(tc.threads-1) {
				t.Fatalf("%s: chunk %d starts at bit %d, past the last span", tc.name, i+1, c.StartBit)
			}
		}
		if last := m.Chunks[len(m.Chunks)-1]; last.EndBit != m.PayloadEndBit || int64(len(out)) == 0 {
			t.Fatalf("%s: last chunk ends at %d, payload at %d", tc.name, last.EndBit, m.PayloadEndBit)
		}
	}
}

// repeatReader yields the same byte forever — a socket that keeps
// producing bytes that will never decode.
type repeatReader struct{ b byte }

func (r repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = r.b
	}
	return len(p), nil
}

// TestPipelineWindowCapOnCorruptStream: a stream that can never decode
// must hit the MaxWindowBytes cap and error out — not buffer the
// entire (here: endless) source, and not hang.
func TestPipelineWindowCapOnCorruptStream(t *testing.T) {
	// 0xff everywhere reads as BTYPE=3 (reserved) at every batch start:
	// undecodable, while the source never reaches EOF.
	const capBytes = 512 << 10
	p := NewPipeline(repeatReader{0xff}, PipelineOptions{
		Threads:              2,
		BatchCompressedBytes: 64 << 10,
		MinChunk:             8 << 10,
		MaxWindowBytes:       capBytes,
		ReadSize:             64 << 10,
	})
	defer p.Close()
	_, err := p.RunMember(func([]byte) error { return nil })
	if err == nil {
		t.Fatal("undecodable stream decoded")
	}
	if max := p.Window().MaxBuffered(); max > capBytes+2*(64<<10) {
		t.Fatalf("window grew to %d despite %d cap", max, capBytes)
	}
}

// TestPipelineInterleavedMembers drives RunMember twice on one source
// with framing bytes between the streams, the way the gzip layer does:
// the window must come back positioned exactly at each member's end.
func TestPipelineInterleavedMembers(t *testing.T) {
	a := fastq.Generate(fastq.GenOptions{Reads: 5000, Seed: 61})
	b := fastq.Generate(fastq.GenOptions{Reads: 5000, Seed: 62})
	pa := mustCompress(t, a, 6)
	pb := mustCompress(t, b, 6)
	frame := []byte{0xde, 0xad, 0xbe, 0xef} // stand-in trailer+header
	src := append(append(append([]byte{}, pa...), frame...), pb...)

	p := NewPipeline(bytes.NewReader(src), PipelineOptions{
		Threads:              3,
		BatchCompressedBytes: 128 << 10,
		MinChunk:             8 << 10,
	})
	defer p.Close()

	var out []byte
	collect := func(buf []byte) error { out = append(out, buf...); return nil }

	end, err := p.RunMember(collect)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, a) {
		t.Fatalf("member A mismatch (%d vs %d bytes)", len(out), len(a))
	}
	// Skip the padding bits and the framing, as the gzip layer would.
	w := p.Window()
	w.DiscardTo((end + 7) / 8)
	got, err := w.Peek(len(frame))
	if err != nil || !bytes.Equal(got, frame) {
		t.Fatalf("framing bytes not at window head: %q, %v", got, err)
	}
	w.Discard(len(frame))

	out = nil
	if _, err := p.RunMember(collect); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, b) {
		t.Fatalf("member B mismatch (%d vs %d bytes)", len(out), len(b))
	}
	if p.BatchCount() < 2 {
		t.Fatalf("batches = %d across two members", p.BatchCount())
	}
}
