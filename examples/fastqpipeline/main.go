// FASTQ pipeline: the paper's motivating scenario — a bioinformatics
// tool whose first step is reading a large .fastq.gz. Here the
// parallel decompressor feeds a GC-content and quality profile
// computation, and we compare against feeding the same pipeline from
// the sequential baseline.
//
//	go run ./examples/fastqpipeline
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	pugz "repro"
	"repro/baseline"
	"repro/internal/dna"
	"repro/internal/fastq"
)

func main() {
	// ~25 MB of reads, gzipped at the default level.
	data := fastq.Generate(fastq.GenOptions{Reads: 100_000, Seed: 11})
	gz, err := baseline.Compress(data, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("input: %d reads, %d compressed bytes\n", 100_000, len(gz))

	run := func(name string, inflate func() ([]byte, error)) {
		t := time.Now()
		out, err := inflate()
		if err != nil {
			log.Fatal(err)
		}
		inflateTime := time.Since(t)

		t = time.Now()
		recs, err := fastq.Parse(out)
		if err != nil {
			log.Fatal(err)
		}
		var gcSum float64
		var qSum, qN int64
		for _, r := range recs {
			gcSum += dna.GC(r.Seq)
			for _, q := range r.Qual {
				qSum += int64(q - 33)
				qN++
			}
		}
		analyse := time.Since(t)
		fmt.Printf("%-28s inflate=%-12v analyse=%-12v reads=%d meanGC=%.4f meanQ=%.1f\n",
			name, inflateTime, analyse, len(recs), gcSum/float64(len(recs)), float64(qSum)/float64(qN))
	}

	run("sequential (gunzip role)", func() ([]byte, error) {
		return pugz.GunzipSequential(gz)
	})
	run(fmt.Sprintf("pugz (%d threads)", runtime.NumCPU()*4), func() ([]byte, error) {
		out, _, err := pugz.Decompress(gz, pugz.Options{Threads: runtime.NumCPU() * 4})
		return out, err
	})
	if runtime.NumCPU() == 1 {
		fmt.Println("\nnote: on a single-core host pugz does strictly more total work than the")
		fmt.Println("sequential decoder, so its wall time is higher here; with one core per chunk")
		fmt.Println("the chunks run concurrently (see the Figure 5 experiment's simulated makespan).")
	}
}
