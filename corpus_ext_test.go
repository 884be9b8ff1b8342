package pugz_test

// Cached corpora for the external (pugz_test) package — the same
// regenerate-once discipline as corpus_test.go in the internal
// package: fixtures are deterministic and read-only, so each (reads,
// seed) corpus and each (corpus, level) compression happens once per
// test binary instead of once per test.

import (
	"sync"
	"testing"

	"repro/baseline"
	"repro/internal/fastq"
)

var (
	extCorpusMu  sync.Mutex
	extCorpusRaw = map[[2]int64][]byte{}
	extCorpusGz  = map[[3]int64][]byte{}
)

// extFastq returns the cached FASTQ corpus for (reads, seed).
func extFastq(reads int, seed int64) []byte {
	extCorpusMu.Lock()
	defer extCorpusMu.Unlock()
	key := [2]int64{int64(reads), seed}
	if b, ok := extCorpusRaw[key]; ok {
		return b
	}
	b := fastq.Generate(fastq.GenOptions{Reads: reads, Seed: seed})
	extCorpusRaw[key] = b
	return b
}

// extGz returns the cached baseline.Compress of extFastq(reads, seed) at
// the given level. The slice is shared: callers must not mutate it.
func extGz(tb testing.TB, reads int, seed int64, level int) []byte {
	tb.Helper()
	data := extFastq(reads, seed)
	extCorpusMu.Lock()
	defer extCorpusMu.Unlock()
	key := [3]int64{int64(reads), seed, int64(level)}
	if gz, ok := extCorpusGz[key]; ok {
		return gz
	}
	gz, err := baseline.Compress(data, level)
	if err != nil {
		tb.Fatal(err)
	}
	extCorpusGz[key] = gz
	return gz
}
