package core

import (
	"bytes"
	"testing"

	"repro/internal/dna"
)

// streamResult reports one streamPayload run.
type streamResult struct {
	batches  int
	outBytes int64
	endBit   int64
	work     Work
}

// streamPayload decodes the raw DEFLATE stream payload as one member
// through a Pipeline over a bytes reader, invoking emit with each
// batch. The window may cover the whole payload, so no batch is refused
// for a block larger than the cap.
func streamPayload(payload []byte, o PipelineOptions, emit func([]byte) error) (streamResult, error) {
	o.MaxWindowBytes = len(payload) + 1
	p := NewPipeline(bytes.NewReader(payload), o)
	defer p.Close()
	endBit, err := p.RunMember(emit)
	return streamResult{p.BatchCount(), p.OutBytes(), endBit, p.Work()}, err
}

func TestStreamMatchesWholeFile(t *testing.T) {
	data := corpusFastq(12000, 41)
	for _, level := range []int{1, 6, 9} {
		payload := corpusPayload(t, 12000, 41, level)
		var got []byte
		res, err := streamPayload(payload, PipelineOptions{
			Threads:              4,
			BatchCompressedBytes: 192 << 10,
			MinChunk:             8 << 10,
		}, func(p []byte) error {
			got = append(got, p...)
			return nil
		})
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("level %d: mismatch (%d vs %d bytes)", level, len(got), len(data))
		}
		if res.batches < 2 {
			t.Fatalf("level %d: expected multiple batches, got %d", level, res.batches)
		}
		if res.outBytes != int64(len(data)) {
			t.Fatalf("level %d: OutBytes %d", level, res.outBytes)
		}
		// The end bit must agree with the whole-file engine.
		_, m, err := DecompressPayload(payload, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.endBit != m.PayloadEndBit {
			t.Fatalf("level %d: end bit %d vs %d", level, res.endBit, m.PayloadEndBit)
		}
	}
}

func TestStreamBatchesBoundMemory(t *testing.T) {
	data := dna.Random(3_000_000, 42)
	payload := mustCompress(t, data, 6)
	maxBatch := 0
	var got []byte
	_, err := streamPayload(payload, PipelineOptions{
		Threads:              3,
		BatchCompressedBytes: 128 << 10,
		MinChunk:             8 << 10,
	}, func(p []byte) error {
		if len(p) > maxBatch {
			maxBatch = len(p)
		}
		got = append(got, p...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
	// A 128 KiB compressed batch cannot legitimately inflate to more
	// than ~20x for DNA-like data; the bound proves batches are
	// actually bounded rather than one giant emit.
	if maxBatch > 4<<20 {
		t.Fatalf("batch of %d bytes: batching is not bounding memory", maxBatch)
	}
}

func TestStreamEmitError(t *testing.T) {
	data := dna.Random(500_000, 43)
	payload := mustCompress(t, data, 6)
	wantErr := bytes.ErrTooLarge // any sentinel
	_, err := streamPayload(payload, PipelineOptions{
		Threads:              2,
		BatchCompressedBytes: 64 << 10,
		MinChunk:             8 << 10,
	}, func(p []byte) error {
		return wantErr
	})
	if err == nil {
		t.Fatal("emit error not propagated")
	}
}

func TestStreamTruncated(t *testing.T) {
	data := dna.Random(500_000, 44)
	payload := mustCompress(t, data, 6)
	_, err := streamPayload(payload[:len(payload)/2], PipelineOptions{
		Threads:              2,
		BatchCompressedBytes: 64 << 10,
		MinChunk:             8 << 10,
	}, func(p []byte) error { return nil })
	if err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestStreamSingleBatch(t *testing.T) {
	data := dna.Random(100_000, 45)
	payload := mustCompress(t, data, 6)
	var got []byte
	res, err := streamPayload(payload, PipelineOptions{
		Threads:              4,
		BatchCompressedBytes: 64 << 20, // whole file in one batch
	}, func(p []byte) error {
		got = append(got, p...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.batches != 1 {
		t.Fatalf("batches %d", res.batches)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
}

func TestStreamSequentialMode(t *testing.T) {
	data := dna.Random(800_000, 46)
	payload := mustCompress(t, data, 6)
	var got []byte
	res, err := streamPayload(payload, PipelineOptions{
		Threads:              4,
		BatchCompressedBytes: 128 << 10,
		MinChunk:             8 << 10,
		Sequential:           true,
	}, func(p []byte) error {
		got = append(got, p...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("sequential-mode mismatch")
	}
	// Inline tasks sync from the window the resolver left, whose bytes
	// before the resolver's bit are gone: each must still decode its
	// span symbolically rather than fail and be taken over.
	if res.work.TakeOvers > 1 {
		t.Fatalf("%d spans taken over, want at most 1 (work %+v)", res.work.TakeOvers, res.work)
	}
}
