// Benchmarks regenerating the paper's performance results. Each
// testing.B target corresponds to one table or figure (the index is
// internal/experiments.All; cmd/experiments -run list prints it);
// run with:
//
//	go test -bench=. -benchmem
//
// Throughput (MB/s of *compressed* input, the paper's metric) is
// reported via b.SetBytes on the compressed size.
package pugz_test

import (
	"bytes"
	stdgzip "compress/gzip"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	pugz "repro"
	"repro/internal/blockfind"
	"repro/internal/deflate"
	"repro/internal/dna"
	"repro/internal/experiments"
	"repro/internal/fastq"
	"repro/internal/flate"
	"repro/internal/framing"
	"repro/internal/gzipx"
	"repro/internal/tracked"
)

// fixtures are built once and shared across benchmarks.
var (
	fixOnce   sync.Once
	fixFastq  []byte // raw FASTQ (~10 MB)
	fixGz     []byte // level-6 gzip of fixFastq
	fixGzLow  []byte // level-1
	fixGzHigh []byte // level-9
	fixDNAGz  []byte // level-6 gzip of 1 Mbp random DNA
)

func loadFixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		fixFastq = fastq.Generate(fastq.GenOptions{Reads: 40_000, Seed: 1234})
		mk := func(level int) []byte {
			gz, err := pugz.Compress(fixFastq, level)
			if err != nil {
				panic(err)
			}
			return gz
		}
		fixGz = mk(6)
		fixGzLow = mk(1)
		fixGzHigh = mk(9)
		d := dna.Random(1_000_000, 77)
		gz, err := pugz.Compress(d, 6)
		if err != nil {
			panic(err)
		}
		fixDNAGz = gz
	})
}

// --- Table II: decompression speed -----------------------------------

// BenchmarkTable2GunzipRole is the exact sequential baseline with
// checksum verification (the "gunzip" column).
func BenchmarkTable2GunzipRole(b *testing.B) {
	b.ReportAllocs()
	loadFixtures(b)
	b.SetBytes(int64(len(fixGz)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pugz.GunzipSequential(fixGz); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2LibdeflateRole is the optimized sequential baseline
// (Go stdlib inflate, the "libdeflate" column).
func BenchmarkTable2LibdeflateRole(b *testing.B) {
	b.ReportAllocs()
	loadFixtures(b)
	b.SetBytes(int64(len(fixGz)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zr, err := stdgzip.NewReader(bytes.NewReader(fixGz))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, zr); err != nil {
			b.Fatal(err)
		}
		zr.Close()
	}
}

// BenchmarkTable2Pugz32 is the paper's headline configuration.
func BenchmarkTable2Pugz32(b *testing.B) {
	b.ReportAllocs()
	loadFixtures(b)
	b.SetBytes(int64(len(fixGz)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pugz.Decompress(fixGz, pugz.Options{Threads: 32, MinChunk: 32 << 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 5: thread scaling ----------------------------------------

func BenchmarkFig5Threads(b *testing.B) {
	b.ReportAllocs()
	loadFixtures(b)
	for _, th := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(benchName(th), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(fixGz)))
			for i := 0; i < b.N; i++ {
				if _, _, err := pugz.Decompress(fixGz, pugz.Options{Threads: th, MinChunk: 32 << 10}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(th int) string {
	return "threads=" + itoa(th)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// --- Table I / Figures 1+4: random access kernels ---------------------

// BenchmarkTable1RandomAccess measures one full random access: block
// sync + tracked decode of the remaining stream + sequence extraction.
func BenchmarkTable1RandomAccess(b *testing.B) {
	b.ReportAllocs()
	loadFixtures(b)
	levels := map[string][]byte{"lowest": fixGzLow, "normal": fixGz, "highest": fixGzHigh}
	for name, gz := range levels {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(gz)))
			for i := 0; i < b.N; i++ {
				if _, err := pugz.RandomAccess(gz, int64(len(gz)/3), pugz.RandomAccessOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig2TrackedDecode measures the undetermined-context decode
// kernel shared by Figures 1, 2 and 4 (decode with symbolic window).
func BenchmarkFig2TrackedDecode(b *testing.B) {
	b.ReportAllocs()
	loadFixtures(b)
	m, err := gzipx.ParseHeader(fixDNAGz)
	if err != nil {
		b.Fatal(err)
	}
	payload := fixDNAGz[m.HeaderLen:]
	blocks, err := pugz.ScanBlocks(fixDNAGz)
	if err != nil {
		b.Fatal(err)
	}
	startBit := blocks[1].StartBit
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tracked.DecodeFrom(payload, startBit, tracked.DecodeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section VI-A: block detection ------------------------------------

// BenchmarkBlockDetect measures one brute-force block sync from a
// mid-file offset (the paper: 100-300 ms per detection).
func BenchmarkBlockDetect(b *testing.B) {
	b.ReportAllocs()
	loadFixtures(b)
	m, err := gzipx.ParseHeader(fixGz)
	if err != nil {
		b.Fatal(err)
	}
	payload := fixGz[m.HeaderLen:]
	f := blockfind.New()
	from := int64(len(payload)) / 2 * 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Next(payload, from); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---------------------------------------------------------

// BenchmarkAblationConfirmations varies the number of confirmation
// blocks after a candidate sync (the paper uses 5): fewer
// confirmations are faster but riskier.
func BenchmarkAblationConfirmations(b *testing.B) {
	b.ReportAllocs()
	loadFixtures(b)
	m, _ := gzipx.ParseHeader(fixGz)
	payload := fixGz[m.HeaderLen:]
	from := int64(len(payload)) / 2 * 8
	for _, conf := range []int{1, 3, 5, 10} {
		b.Run("confirm="+itoa(conf), func(b *testing.B) {
			b.ReportAllocs()
			f := blockfind.New()
			f.Confirmations = conf
			for i := 0; i < b.N; i++ {
				if _, err := f.Next(payload, from); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMinChunk varies the chunking granularity of the
// parallel engine: finer chunks parallelise better but pay more sync
// scans and more pass-2 windows.
func BenchmarkAblationMinChunk(b *testing.B) {
	b.ReportAllocs()
	loadFixtures(b)
	for _, mc := range []int{16 << 10, 64 << 10, 256 << 10, 1 << 20} {
		b.Run("minchunk="+itoa(mc>>10)+"KiB", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(fixGz)))
			for i := 0; i < b.N; i++ {
				if _, _, err := pugz.Decompress(fixGz, pugz.Options{Threads: 16, MinChunk: mc}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompressLevels measures our zlib-semantics compressor (the
// corpus generator for every experiment).
func BenchmarkCompressLevels(b *testing.B) {
	b.ReportAllocs()
	loadFixtures(b)
	data := fixFastq[:4<<20]
	for _, level := range []int{1, 6, 9} {
		b.Run("level="+itoa(level), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := pugz.Compress(data, level); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Related-work baselines (Section II) -------------------------------

// BenchmarkBaselineIndexReadAt measures exact random access through a
// zran-style checkpoint index (reference [11]); build cost excluded.
func BenchmarkBaselineIndexReadAt(b *testing.B) {
	b.ReportAllocs()
	loadFixtures(b)
	ix, err := pugz.BuildIndex(fixGz, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	off := ix.Size() / 2
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.ReadAt(fixGz, buf, off); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineBGZF measures the blocked-file baseline (reference
// [12]): trivially parallel decompression of independent blocks.
func BenchmarkBaselineBGZF(b *testing.B) {
	b.ReportAllocs()
	loadFixtures(b)
	bz, err := pugz.CompressBGZF(fixFastq, 6)
	if err != nil {
		b.Fatal(err)
	}
	for _, th := range []int{1, 4, 16} {
		b.Run(benchName(th), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bz)))
			for i := 0; i < b.N; i++ {
				if _, err := pugz.DecompressBGZF(bz, th); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamingReader measures the bounded-memory mode against
// whole-file decompression.
func BenchmarkStreamingReader(b *testing.B) {
	b.ReportAllocs()
	loadFixtures(b)
	b.SetBytes(int64(len(fixGz)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := pugz.NewReaderBytes(fixGz, pugz.StreamOptions{Threads: 4, BatchCompressedBytes: 4 << 20, MinChunk: 512 << 10})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, r); err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}

// BenchmarkFileReadAt measures one positional read through the
// seekable File surface with a checkpoint index attached: the
// gzindex-accelerated exact-random-access path.
func BenchmarkFileReadAt(b *testing.B) {
	b.ReportAllocs()
	loadFixtures(b)
	ix, err := pugz.BuildIndex(fixGz, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := ix.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	f, err := pugz.NewFileBytes(fixGz, pugz.FileOptions{Threads: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if err := f.SetIndex(blob); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	off := ix.Size() / 2
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
			b.Fatal(err)
		}
	}
}

// BenchmarkFileDeepSeek measures one deep unindexed positional read —
// the worst case for a seekable File, since the whole prefix must be
// decoded. "twopass" is the parallel translation-free skip (a fresh
// File each iteration, so no auto-index survives between reads);
// "discard" replays the pre-skip cursor: a streaming reader whose
// prefix is translated and thrown away byte by byte.
func BenchmarkFileDeepSeek(b *testing.B) {
	loadFixtures(b)
	var usize int64
	{
		f, err := pugz.NewFileBytes(fixGz, pugz.FileOptions{Threads: 4})
		if err != nil {
			b.Fatal(err)
		}
		if usize, err = f.Size(); err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
	off := usize * 9 / 10
	buf := make([]byte, 64<<10)

	b.Run("twopass", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(fixGz)))
		for i := 0; i < b.N; i++ {
			f, err := pugz.NewFileBytes(fixGz, pugz.FileOptions{Threads: 4})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
				b.Fatal(err)
			}
			f.Close()
		}
	})
	b.Run("discard", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(fixGz)))
		for i := 0; i < b.N; i++ {
			r, err := pugz.NewReaderBytes(fixGz, pugz.StreamOptions{Threads: 4})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.CopyN(io.Discard, r, off); err != nil {
				b.Fatal(err)
			}
			if _, err := io.ReadFull(r, buf); err != nil {
				b.Fatal(err)
			}
			r.Close()
		}
	})
}

// BenchmarkBuildIndex measures streaming checkpoint-index construction
// (one exact pass, output discarded batch by batch).
func BenchmarkBuildIndex(b *testing.B) {
	loadFixtures(b)
	for _, th := range []int{1, 4} {
		b.Run(benchName(th), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(fixGz)))
			for i := 0; i < b.N; i++ {
				if _, err := pugz.NewIndexFromReader(bytes.NewReader(fixGz), 1<<20,
					pugz.StreamOptions{Threads: th}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGuesser measures the undetermined-character guesser on
// masked FASTQ text.
func BenchmarkGuesser(b *testing.B) {
	b.ReportAllocs()
	loadFixtures(b)
	masked := append([]byte{}, fixFastq[:4<<20]...)
	for i := 13; i < len(masked); i += 17 {
		if masked[i] != '\n' {
			masked[i] = '?'
		}
	}
	b.SetBytes(int64(len(masked)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pugz.GuessUndetermined(masked, int64(i))
	}
}

// BenchmarkCompressParallel measures pigz-style chunked compression
// (the introduction's "easy direction").
func BenchmarkCompressParallel(b *testing.B) {
	b.ReportAllocs()
	loadFixtures(b)
	data := fixFastq[:8<<20]
	for _, th := range []int{1, 4, 16} {
		b.Run(benchName(th), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := pugz.CompressParallel(data, 6, th); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFileDeepSeekTail is the deep seek in the geometry where the
// tail-only sinks engage: many small batches, so the clearly-skippable
// middle segments decode with O(32 KiB)-per-chunk pass-1 state while
// only the first and boundary batches decode in full. (The companion
// BenchmarkFileDeepSeek keeps the default single-batch geometry for
// comparability with earlier captures.)
func BenchmarkFileDeepSeekTail(b *testing.B) {
	b.ReportAllocs()
	loadFixtures(b)
	var usize int64
	{
		f, err := pugz.NewFileBytes(fixGz, pugz.FileOptions{Threads: 4})
		if err != nil {
			b.Fatal(err)
		}
		if usize, err = f.Size(); err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
	off := usize * 9 / 10
	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(fixGz)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := pugz.NewFileBytes(fixGz, pugz.FileOptions{
			Threads:              4,
			BatchCompressedBytes: 128 << 10,
			AutoIndexSpacing:     -1, // isolate the skip itself
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
			b.Fatal(err)
		}
		f.Close()
	}
}

// BenchmarkFileSize measures the tail-only measuring pass behind
// Size(): a translation-free, bounded-memory sweep whose pass-1 state
// is O(32 KiB) per chunk (PR 5's tail sink), with the default
// auto-index checkpoint harvest running as a side-channel.
func BenchmarkFileSize(b *testing.B) {
	b.ReportAllocs()
	loadFixtures(b)
	b.SetBytes(int64(len(fixGz)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := pugz.NewFileBytes(fixGz, pugz.FileOptions{Threads: 4})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Size(); err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}

// BenchmarkResolveDensity measures the batched pass-2 translation
// kernel at several symbolic densities: "none" is the pure-literal
// fast path (the overwhelmingly common case — symbols only survive in
// a chunk's first 32 KiB), "sparse" the realistic tail, and "half" the
// adversarial worst case for the 8-wide literal scan.
func BenchmarkResolveDensity(b *testing.B) {
	b.ReportAllocs()
	ctx := make([]byte, tracked.WindowSize)
	for i := range ctx {
		ctx[i] = byte(i)
	}
	out := make([]uint16, 8<<20)
	dst := make([]byte, len(out))
	for _, cfg := range []struct {
		name  string
		every int // one symbol per `every` entries; 0 = none
	}{{"none", 0}, {"sparse", 128}, {"half", 2}} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := range out {
				if cfg.every > 0 && i%cfg.every == 0 {
					out[i] = uint16(tracked.SymBase + i%tracked.WindowSize)
				} else {
					out[i] = uint16('A' + i%4)
				}
			}
			b.SetBytes(int64(len(out)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tracked.Resolve(out, ctx, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPass2Translate isolates the pass-2 symbol translation scan.
func BenchmarkPass2Translate(b *testing.B) {
	b.ReportAllocs()
	out := make([]uint16, 8<<20)
	for i := range out {
		if i%13 == 0 {
			out[i] = uint16(tracked.SymBase + i%tracked.WindowSize)
		} else {
			out[i] = uint16('A' + i%4)
		}
	}
	ctx := make([]byte, tracked.WindowSize)
	dst := make([]byte, len(out))
	b.SetBytes(int64(len(out)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tracked.Resolve(out, ctx, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Experiment smoke tests (fast configs) ----------------------------

// TestExperimentsSmoke runs every experiment at a tiny scale so the
// harness itself stays correct; full-scale runs happen via
// cmd/experiments.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := experiments.Config{Scale: 0.2, Threads: 8}
	for _, e := range experiments.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var sink bytes.Buffer
			if err := e.Run(cfg, &sink); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if sink.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

// BenchmarkFileConcurrentReadAt measures N goroutines hammering one
// indexed File with positional reads — the serving-layer workload
// (ROADMAP item 1). Before the cursor-pool refactor every reader
// serialised through one mutex, so throughput was flat in N; now
// indexed reads share nothing mutable and scale with cores. readers=1
// doubles as the no-regression guard for the serialized baseline.
func BenchmarkFileConcurrentReadAt(b *testing.B) {
	loadFixtures(b)
	ix, err := pugz.BuildIndex(fixGz, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := ix.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	f, err := pugz.NewFileBytes(fixGz, pugz.FileOptions{Threads: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if err := f.SetIndex(blob); err != nil {
		b.Fatal(err)
	}
	const readLen = 64 << 10
	span := ix.Size() - readLen
	for _, readers := range []int{1, 4, 64, 1024} {
		b.Run("readers="+itoa(readers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(readLen)
			var next atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf := make([]byte, readLen)
					for {
						i := next.Add(1)
						if i > int64(b.N) {
							return
						}
						// Deterministic stride walk spreading reads across
						// the indexed extent.
						off := (i * 2654435761) % span
						if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// --- PR 7: multi-symbol token decode ---------------------------------

// rawDeflate strips fixGz down to its raw DEFLATE payload once.
var (
	rawOnce    sync.Once
	rawPayload []byte
	rawMidBit  int64 // a block boundary past the first window
)

func loadRawDeflate(b *testing.B) {
	b.Helper()
	loadFixtures(b)
	rawOnce.Do(func() {
		payload, err := deflate.Compress(fixFastq, 6)
		if err != nil {
			panic(err)
		}
		rawPayload = payload
		_, spans, err := flate.DecompressRecorded(payload, 0, true)
		if err != nil {
			panic(err)
		}
		for _, sp := range spans {
			if sp.OutStart > 32<<10 {
				rawMidBit = sp.Event.StartBit
				break
			}
		}
	})
}

// BenchmarkFlateDecodeTokens measures the exact sequential token loop
// in isolation — no gzip framing, no checksum, no chunking — so the
// multi-symbol fast path's effect on the inner decode is visible
// directly. Throughput is compressed MB/s like the paper's tables.
func BenchmarkFlateDecodeTokens(b *testing.B) {
	b.ReportAllocs()
	loadRawDeflate(b)
	b.SetBytes(int64(len(rawPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flate.DecompressAll(rawPayload, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrackedPass1 measures the symbolic pass-1 decode from a
// mid-stream block boundary with a fully undetermined context — the
// per-chunk work of the paper's parallel first pass.
func BenchmarkTrackedPass1(b *testing.B) {
	b.ReportAllocs()
	loadRawDeflate(b)
	if rawMidBit == 0 {
		b.Fatal("no mid-stream block boundary found")
	}
	b.SetBytes(int64(len(rawPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tracked.DecodeFrom(rawPayload, rawMidBit, tracked.DecodeOptions{SizeHint: len(fixFastq)})
		if err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
}

// BenchmarkRecordScan measures the exact record scanner (File.Records)
// over an unindexed file for each shipped framing — records decoded,
// framed and yielded per second, with throughput on the compressed
// input consumed.
func BenchmarkRecordScan(b *testing.B) {
	loadFixtures(b)
	jsonl := framing.GenJSONL(40_000, 99)
	warc := framing.GenWARC(4_000, 98)
	cases := []struct {
		name   string
		gz     []byte
		framer pugz.Framer
	}{
		{"fastq", fixGz, pugz.FASTQFraming{}},
		{"jsonl", mustCompress(b, jsonl, 6), pugz.NewlineFraming{ValidateJSON: true}},
		{"warc", mustCompress(b, warc, 6), pugz.WARCFraming{}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(tc.gz)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := pugz.NewFileBytes(tc.gz, pugz.FileOptions{Threads: 4})
				if err != nil {
					b.Fatal(err)
				}
				sc, err := f.Records(0, pugz.RecordOptions{Framer: tc.framer})
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for sc.Next() {
					n++
				}
				if err := sc.Err(); err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("no records scanned")
				}
				b.ReportMetric(float64(n), "records/op")
			}
		})
	}
}

func mustCompress(b *testing.B, data []byte, level int) []byte {
	b.Helper()
	gz, err := pugz.Compress(data, level)
	if err != nil {
		b.Fatal(err)
	}
	return gz
}
