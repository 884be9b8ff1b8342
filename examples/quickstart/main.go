// Quickstart: compress a synthetic FASTQ file, decompress it in
// parallel with pugz — first whole-file (the slice API), then through
// the bounded-memory streaming pipeline (the io.Reader API) — and
// verify both roundtrips.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"runtime"

	pugz "repro"
	"repro/baseline"
	"repro/internal/fastq"
)

func main() {
	// 1. Make a FASTQ file (50k reads, ~12 MB) and gzip it at the
	// default level — the exact shape of real sequencing data inputs.
	data := fastq.Generate(fastq.GenOptions{Reads: 50_000, Seed: 1})
	gz, err := baseline.Compress(data, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compressed %d -> %d bytes (%.2fx)\n",
		len(data), len(gz), float64(len(data))/float64(len(gz)))

	// 2. The slice API: whole-file two-pass parallel decompression.
	// Output is byte-identical to gunzip.
	out, st, err := pugz.Decompress(gz, pugz.Options{
		Threads:         runtime.NumCPU() * 4, // chunks, not OS threads
		VerifyChecksums: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		log.Fatal("roundtrip mismatch!")
	}

	// 3. Inspect how the two passes spent their time.
	fmt.Printf("decompressed with %d chunks in %v\n", len(st.Chunks), st.TotalWall)
	fmt.Printf("  block sync:          %v\n", st.SyncWall)
	fmt.Printf("  pass 1 (parallel):   %v\n", st.Pass1Wall)
	fmt.Printf("  pass 2 (sequential): %v\n", st.Pass2SeqWall)
	fmt.Printf("  pass 2 (parallel):   %v\n", st.Pass2ParWall)
	for i, c := range st.Chunks {
		fmt.Printf("  chunk %d: %d bytes out, %d context symbols before resolution\n",
			i, c.OutBytes, c.SymbolsUnresolved)
	}

	// 4. The streaming API: the same parallel engine behind an
	// io.ReadCloser. The source here is an in-memory reader, but any
	// io.Reader works — a file, a pipe, a socket — and neither the
	// compressed nor the decompressed payload is ever held in full
	// (see examples/streaming for a pipe-fed run).
	r, err := pugz.NewReader(bytes.NewReader(gz), pugz.StreamOptions{
		Threads:              4,
		BatchCompressedBytes: 512 << 10,
		VerifyChecksums:      true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	streamed, err := io.ReadAll(r)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(streamed, data) {
		log.Fatal("streaming roundtrip mismatch!")
	}
	rs := r.Stats()
	fmt.Printf("streamed the same file in %d batches, peak compressed window %d bytes (file is %d)\n",
		rs.Batches, rs.MaxBufferedCompressed, len(gz))
	fmt.Println("roundtrip OK")
}
