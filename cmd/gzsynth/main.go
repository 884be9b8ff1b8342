// Command gzsynth generates the synthetic corpora used throughout the
// reproduction and compresses them with this repository's
// gzip-compatible compressor at any level 0-9:
//
//	gzsynth -kind fastq -reads 100000 -level 6 -o sample.fastq.gz
//	gzsynth -kind dna -bytes 1000000 -level 1 -o dna.gz
//	gzsynth -kind fastqlike -bytes 150000000 -level 1 -o fql.gz
//	gzsynth -kind fastq -reads 1000 -level 0 -plain -o tiny.fastq
//
// Beyond the paper's FASTQ/DNA corpora it generates the record
// workloads of the framing layer — JSONL, log lines, WARC records —
// and can write them as multi-member, stored-block-heavy archives
// (independent gzip members cycling through a level list), the shape
// real rotated-log and web-archive collections take:
//
//	gzsynth -kind jsonl -records 200000 -members 8 -levels 0,1,6,9 -o logs.jsonl.gz
//	gzsynth -kind warc -records 5000 -members 4 -levels 0,0,9 -o crawl.warc.gz
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/baseline"
	"repro/internal/dna"
	"repro/internal/fastq"
	"repro/internal/framing"
)

func main() {
	kind := flag.String("kind", "fastq", "corpus kind: fastq | dna | fastqlike | jsonl | log | warc")
	reads := flag.Int("reads", 50000, "number of reads (fastq)")
	readLen := flag.Int("readlen", 100, "read length (fastq)")
	bytes := flag.Int("bytes", 1_000_000, "corpus size in bytes (dna, fastqlike)")
	records := flag.Int("records", 10000, "number of records (jsonl, log, warc)")
	level := flag.Int("level", 6, "compression level 0-9")
	levels := flag.String("levels", "", "comma-separated level cycle for -members (overrides -level)")
	members := flag.Int("members", 1, "split the corpus into this many independent gzip members")
	seed := flag.Int64("seed", 1, "RNG seed")
	plain := flag.Bool("plain", false, "write uncompressed output")
	threads := flag.Int("threads", 1, "parallel compression threads (pigz-style chunking when > 1)")
	out := flag.String("o", "", "output file (required)")
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "usage: gzsynth -kind fastq|dna|fastqlike|jsonl|log|warc [-reads N|-bytes N|-records N] [-members M -levels L,L,..] -level L -o FILE")
		os.Exit(2)
	}

	var data []byte
	switch *kind {
	case "fastq":
		data = fastq.Generate(fastq.GenOptions{Reads: *reads, ReadLen: *readLen, Seed: *seed})
	case "dna":
		data = dna.Random(*bytes, *seed)
	case "fastqlike":
		data = dna.PaperFASTQLike(*bytes, *seed)
	case "jsonl":
		data = framing.GenJSONL(*records, *seed)
	case "log":
		data = framing.GenLog(*records, *seed)
	case "warc":
		data = framing.GenWARC(*records, *seed)
	default:
		fmt.Fprintf(os.Stderr, "gzsynth: unknown kind %q\n", *kind)
		os.Exit(2)
	}

	if *plain {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gzsynth: wrote %d bytes (uncompressed)\n", len(data))
		return
	}

	cycle, err := parseLevels(*levels, *level)
	if err != nil {
		fatal(err)
	}

	var gz []byte
	switch {
	case *members > 1:
		gz, err = multiMember(data, *members, cycle)
	case *threads > 1:
		gz, err = baseline.CompressParallel(data, cycle[0], *threads)
	default:
		gz, err = baseline.CompressNamed(data, cycle[0], *out)
	}
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, gz, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "gzsynth: %d -> %d bytes (%d member(s), levels %v, ratio %.2f)\n",
		len(data), len(gz), *members, cycle, float64(len(data))/float64(len(gz)))
}

// parseLevels resolves the member level cycle: the -levels list when
// given, else the single -level.
func parseLevels(list string, level int) ([]int, error) {
	if list == "" {
		return []int{level}, nil
	}
	var cycle []int
	for _, s := range strings.Split(list, ",") {
		l, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || l < 0 || l > 9 {
			return nil, fmt.Errorf("bad -levels entry %q", s)
		}
		cycle = append(cycle, l)
	}
	return cycle, nil
}

// multiMember splits data into n consecutive extents and compresses
// each as an independent gzip member, cycling through the level list —
// a level-0 entry makes that member all stored blocks, the
// stored-block-heavy shape the blockfind hardening targets.
func multiMember(data []byte, n int, cycle []int) ([]byte, error) {
	var out []byte
	per := (len(data) + n - 1) / n
	if per == 0 {
		per = 1
	}
	for i := 0; len(data) > 0; i++ {
		ext := per
		if ext > len(data) {
			ext = len(data)
		}
		gz, err := baseline.Compress(data[:ext], cycle[i%len(cycle)])
		if err != nil {
			return nil, err
		}
		out = append(out, gz...)
		data = data[ext:]
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gzsynth:", err)
	os.Exit(1)
}
