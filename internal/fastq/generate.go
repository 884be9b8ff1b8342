// Package fastq implements the FASTQ side of the paper: a synthetic
// Illumina-like generator (the stand-in for the ENA corpus), a strict
// parser, the heuristic extractor of DNA-like segments from partially
// undetermined text (Appendix X-B), sequence-resolved block detection
// (Section VI-B), and the character-type annotation behind Figure 4.
package fastq

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/dna"
)

// Record is one FASTQ entry.
type Record struct {
	Header string // without the leading '@'
	Seq    []byte
	Qual   []byte
}

// GenOptions shapes the synthetic dataset.
type GenOptions struct {
	Reads   int   // number of records
	ReadLen int   // bases per read (Illumina-like: constant)
	Seed    int64 //
	// Instrument/run identifiers baked into headers.
	Instrument string
	Flowcell   string
	// NRate is the probability of an 'N' base (quality floored).
	NRate float64
}

// Defaults fills zero fields with realistic values.
func (o GenOptions) withDefaults() GenOptions {
	if o.ReadLen == 0 {
		o.ReadLen = 100
	}
	if o.Instrument == "" {
		o.Instrument = "SIM001"
	}
	if o.Flowcell == "" {
		o.Flowcell = "FCX01"
	}
	if o.NRate == 0 {
		o.NRate = 0.002
	}
	return o
}

// Generate produces a synthetic FASTQ file. Headers follow the
// Illumina convention (instrument:run:flowcell:lane:tile:x:y), quality
// strings use a position-dependent Phred+33 distribution that decays
// toward the 3' end — giving the same header/DNA/quality interleaving
// and per-stream redundancy structure that drives the paper's
// compression phenomena.
func Generate(o GenOptions) []byte {
	o = o.withDefaults()
	rng := dna.NewRNG(o.Seed)
	var buf bytes.Buffer
	buf.Grow(o.Reads * (o.ReadLen*2 + 64))
	for i := 0; i < o.Reads; i++ {
		lane := 1 + i%8
		tile := 1001 + (i/8)%120
		x := 1000 + rng.Intn(20000)
		y := 1000 + rng.Intn(20000)
		fmt.Fprintf(&buf, "@%s:42:%s:%d:%d:%d:%d 1:N:0:ATCACG\n",
			o.Instrument, o.Flowcell, lane, tile, x, y)
		for j := 0; j < o.ReadLen; j++ {
			if rng.Float64() < o.NRate {
				buf.WriteByte('N')
			} else {
				buf.WriteByte(dna.Alphabet[rng.Intn(4)])
			}
		}
		buf.WriteByte('\n')
		buf.WriteString("+\n")
		writeQuality(&buf, rng, o.ReadLen)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// writeQuality emits one Phred+33 quality string. Real Illumina
// qualities are strongly run-correlated: long stretches of the same
// high value, a slow decay toward the 3' end, and occasional
// low-quality dips. The run structure matters for fidelity — it is
// what makes the quality stream the most compressible part of a FASTQ
// file (and gives gzip the ~3x overall ratio the paper reports), and
// it shapes the quality<->DNA back-reference bridging behind Figure 4.
func writeQuality(buf *bytes.Buffer, rng *rand.Rand, readLen int) {
	q := 36 + rng.Intn(6) // start high: Q36-Q41
	run := 0
	for j := 0; j < readLen; j++ {
		if run == 0 {
			run = 1 + rng.Intn(12)  // hold each value for a stretch
			step := rng.Intn(5) - 2 // gentle random walk...
			if rng.Intn(4) == 0 {
				step-- // ...with a downward drift toward the 3' end
			}
			q += step
			if rng.Intn(120) == 0 {
				q = 2 + rng.Intn(12) // rare low-quality dip
			}
			if q < 2 {
				q = 2
			}
			if q > 41 {
				q = 41
			}
		}
		run--
		buf.WriteByte(byte(33 + q))
	}
}

// Parse splits a well-formed FASTQ file into records. It enforces the
// 4-line convention strictly (this is the test oracle; the heuristic
// parser in extract.go is the forensic one).
func Parse(data []byte) ([]Record, error) {
	var recs []Record
	lines := bytes.Split(data, []byte{'\n'})
	// A trailing newline yields one empty trailing element.
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines)%4 != 0 {
		return nil, fmt.Errorf("fastq: %d lines, not a multiple of 4", len(lines))
	}
	for i := 0; i < len(lines); i += 4 {
		h, s, p, q := lines[i], lines[i+1], lines[i+2], lines[i+3]
		if len(h) == 0 || h[0] != '@' {
			return nil, fmt.Errorf("fastq: record %d: header missing '@'", i/4)
		}
		if len(p) == 0 || p[0] != '+' {
			return nil, fmt.Errorf("fastq: record %d: separator missing '+'", i/4)
		}
		if len(s) != len(q) {
			return nil, fmt.Errorf("fastq: record %d: seq/qual length mismatch (%d vs %d)", i/4, len(s), len(q))
		}
		recs = append(recs, Record{Header: string(h[1:]), Seq: s, Qual: q})
	}
	return recs, nil
}

// CharClass labels every byte of a FASTQ file by stream, the
// annotation behind Figure 4.
type CharClass uint8

const (
	ClassHeader CharClass = iota // sequence header line (incl. '@')
	ClassDNA                     // nucleotide line
	ClassPlus                    // quality header line (usually "+")
	ClassQual                    // quality line
	ClassSep                     // newline separators
	NumCharClasses
)

func (c CharClass) String() string {
	switch c {
	case ClassHeader:
		return "header"
	case ClassDNA:
		return "dna"
	case ClassPlus:
		return "plus"
	case ClassQual:
		return "quality"
	case ClassSep:
		return "sep"
	}
	return "?"
}

// Classify returns a per-byte class array for a well-formed FASTQ
// file: a 4-state line cycle with newlines as ClassSep.
func Classify(data []byte) []CharClass {
	out := make([]CharClass, len(data))
	state := 0 // 0 header, 1 dna, 2 plus, 3 qual
	lineClass := [4]CharClass{ClassHeader, ClassDNA, ClassPlus, ClassQual}
	for i, b := range data {
		if b == '\n' {
			out[i] = ClassSep
			state = (state + 1) % 4
			continue
		}
		out[i] = lineClass[state]
	}
	return out
}
