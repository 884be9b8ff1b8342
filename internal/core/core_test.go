package core

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/deflate"
	"repro/internal/dna"
	"repro/internal/fastq"
	"repro/internal/flate"
)

func mustCompress(t *testing.T, data []byte, level int) []byte {
	t.Helper()
	payload, err := deflate.Compress(data, level)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// --- Cached test corpora ----------------------------------------------
//
// Generating FASTQ corpora and compressing them with this repository's
// own (deliberately simple) DEFLATE writer is the most expensive part
// of this package's suite — and under -race on a small CI box it used
// to dominate the group's runtime, because every test regenerated its
// own near-identical corpus. Tests that just need "a corpus" share
// these memoized fixtures instead; generation is deterministic, the
// data is treated as read-only, and each (shape, level) pair is built
// exactly once per test binary.

var (
	corpusMu  sync.Mutex
	corpusRaw = map[[2]int64][]byte{}
	corpusPay = map[[3]int64][]byte{}
)

// corpusFastq returns the cached FASTQ corpus for (reads, seed).
func corpusFastq(reads int, seed int64) []byte {
	corpusMu.Lock()
	defer corpusMu.Unlock()
	key := [2]int64{int64(reads), seed}
	if b, ok := corpusRaw[key]; ok {
		return b
	}
	b := fastq.Generate(fastq.GenOptions{Reads: reads, Seed: seed})
	corpusRaw[key] = b
	return b
}

// corpusPayload returns the cached DEFLATE payload of corpusFastq at
// the given level.
func corpusPayload(t testing.TB, reads int, seed int64, level int) []byte {
	t.Helper()
	data := corpusFastq(reads, seed)
	corpusMu.Lock()
	defer corpusMu.Unlock()
	key := [3]int64{int64(reads), seed, int64(level)}
	if p, ok := corpusPay[key]; ok {
		return p
	}
	p, err := deflate.Compress(data, level)
	if err != nil {
		t.Fatal(err)
	}
	corpusPay[key] = p
	return p
}

// TestParallelMatchesSequential is the headline exactness property:
// for every corpus, level, and thread count, the two-pass parallel
// output must be byte-identical to a sequential decode.
func TestParallelMatchesSequential(t *testing.T) {
	corpora := map[string][]byte{
		"fastq": fastq.Generate(fastq.GenOptions{Reads: 8000, Seed: 3}),
		"dna":   dna.Random(1_000_000, 4),
	}
	for name, data := range corpora {
		for _, level := range []int{1, 6, 9} {
			payload := mustCompress(t, data, level)
			want, err := flate.DecompressAll(payload, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, data) {
				t.Fatal("reference decode disagrees with input")
			}
			for _, threads := range []int{1, 2, 3, 4, 8} {
				got, m, err := DecompressPayload(payload, Options{
					Threads:  threads,
					MinChunk: 4 << 10, // force real splits on small inputs
				})
				if err != nil {
					t.Fatalf("%s level %d threads %d: %v", name, level, threads, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s level %d threads %d: output mismatch (%d vs %d bytes)",
						name, level, threads, len(got), len(want))
				}
				if threads > 1 && len(m.Chunks) < 2 && len(payload) > 64<<10 {
					t.Errorf("%s level %d threads %d: expected multiple chunks, got %d",
						name, level, threads, len(m.Chunks))
				}
			}
		}
	}
}

// TestChunkMetricsConsistent checks the metrics bookkeeping: chunk
// output bytes must sum to the total output.
func TestChunkMetricsConsistent(t *testing.T) {
	data := fastq.Generate(fastq.GenOptions{Reads: 6000, Seed: 9})
	payload := mustCompress(t, data, 6)
	out, m, err := DecompressPayload(payload, Options{Threads: 4, MinChunk: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, c := range m.Chunks {
		sum += c.OutBytes
	}
	if sum != int64(len(out)) {
		t.Fatalf("chunk bytes sum %d != output %d", sum, len(out))
	}
}

// TestSymbolsGetResolved checks that mid-stream chunks actually start
// undetermined and that pass 2 resolves everything (implicitly: output
// equality above), and that at level 6 some symbols remain after pass
// 1 — the situation that makes the second pass necessary. Sequential
// mode runs every span's pass 1: a concurrent run decodes exactly any
// span the resolver reaches before its sync confirms, and runs no
// worker at all with GOMAXPROCS 1.
func TestSymbolsGetResolved(t *testing.T) {
	data := fastq.Generate(fastq.GenOptions{Reads: 8000, Seed: 5})
	payload := mustCompress(t, data, 6)
	_, m, err := DecompressPayload(payload, Options{Threads: 4, MinChunk: 8 << 10, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Chunks) < 2 {
		t.Skip("input too small to split")
	}
	anySymbols := false
	for _, c := range m.Chunks[1:] {
		if c.SymbolsUnresolved > 0 {
			anySymbols = true
		}
	}
	if !anySymbols {
		t.Error("expected at least one chunk with unresolved symbols after pass 1")
	}
}

// TestSingleThreadFallback exercises the sequential path.
func TestSingleThreadFallback(t *testing.T) {
	data := dna.Random(100_000, 6)
	payload := mustCompress(t, data, 6)
	got, m, err := DecompressPayload(payload, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("sequential output mismatch")
	}
	if len(m.Chunks) != 1 {
		t.Fatalf("want 1 chunk, got %d", len(m.Chunks))
	}
}

// TestTruncatedStream must fail loudly, not return partial data.
func TestTruncatedStream(t *testing.T) {
	data := fastq.Generate(fastq.GenOptions{Reads: 5000, Seed: 8})
	payload := mustCompress(t, data, 6)
	trunc := payload[:len(payload)/2]
	if _, _, err := DecompressPayload(trunc, Options{Threads: 4, MinChunk: 4 << 10}); err == nil {
		t.Fatal("expected error on truncated stream")
	}
}

// TestStoredLevel exercises parallel decode of level-0 (stored-only)
// streams, where block detection must sync on stored-block headers.
func TestStoredLevel(t *testing.T) {
	data := fastq.Generate(fastq.GenOptions{Reads: 4000, Seed: 10})
	payload := mustCompress(t, data, 0)
	got, _, err := DecompressPayload(payload, Options{Threads: 4, MinChunk: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stored-level output mismatch")
	}
}
