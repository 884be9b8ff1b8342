package pugz

// Cached test corpora. Generating FASTQ data and compressing it with
// this repository's own DEFLATE writer is the most expensive fixed
// cost of the root test suite, and under -race on a small CI box the
// per-test regeneration used to dominate the split race groups'
// runtime. Corpora are deterministic in (reads, seed) and treated as
// read-only by every test, so each distinct shape is generated — and
// each (shape, level) pair compressed — exactly once per test binary.

import (
	"sync"
	"testing"

	"repro/baseline"
	"repro/internal/fastq"
)

var (
	corpusMu  sync.Mutex
	corpusRaw = map[[2]int64][]byte{}
	corpusGz  = map[[3]int64][]byte{}
)

// genFastq returns the cached FASTQ corpus for (reads, seed).
func genFastq(reads int, seed int64) []byte {
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

// gzCorpus returns the cached baseline.Compress result of genFastq(reads,
// seed) at the given level. The slice is shared: callers must not
// mutate it.
func gzCorpus(tb testing.TB, reads int, seed int64, level int) []byte {
	tb.Helper()
	data := genFastq(reads, seed)
	corpusMu.Lock()
	defer corpusMu.Unlock()
	key := [3]int64{int64(reads), seed, int64(level)}
	if gz, ok := corpusGz[key]; ok {
		return gz
	}
	gz, err := baseline.Compress(data, level)
	if err != nil {
		tb.Fatal(err)
	}
	corpusGz[key] = gz
	return gz
}
