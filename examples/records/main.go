// Record framing: the generalised record-access surface. One synthetic
// rotated-log corpus (multi-member gzip, stored-block-heavy) is read
// three ways:
//
//  1. index-free random access with a JSONL framer — sync to a DEFLATE
//     block near a *compressed* offset, frame complete records out of
//     the partially resolved text;
//
//  2. an exact record scan (File.Records) from a *decompressed*
//     offset — every record, byte-perfect, via the File read paths;
//
//  3. a mid-stream synced scan — start inside a record, skip to the
//     next boundary.
//
//     go run ./examples/records
package main

import (
	"fmt"
	"log"

	pugz "repro"
	"repro/baseline"
	"repro/internal/framing"
)

func main() {
	// A rotated-log shape: four gzip members at mixed levels, the first
	// stored (level 0) — exactly what log rotation with bursty
	// compression settings produces.
	data := framing.GenJSONL(20_000, 7)
	var gz []byte
	per := (len(data) + 3) / 4
	for i, level := range []int{0, 1, 6, 9} {
		lo := i * per
		hi := min(lo+per, len(data))
		m, err := baseline.Compress(data[lo:hi], level)
		if err != nil {
			log.Fatal(err)
		}
		gz = append(gz, m...)
	}
	fmt.Printf("corpus: %d JSONL bytes -> %d compressed, 4 members (levels 0,1,6,9)\n",
		len(data), len(gz))

	// 1. Index-free random access. The framer decides what a record is;
	// only records free of undetermined bytes are emitted.
	fr := pugz.NewlineFraming{ValidateJSON: true}
	offset := int64(len(gz) / 8) // inside the stored member
	res, err := pugz.RandomAccess(gz, offset, pugz.RandomAccessOptions{Framer: fr})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrandom access at compressed offset %d (framer %q):\n", offset, fr.Name())
	fmt.Printf("  decoded %d bytes, recovered %d complete records\n",
		len(res.Text), len(res.Records))
	for _, r := range res.Records[:3] {
		fmt.Printf("  @%-8d %s\n", r.Offset, r.Data)
	}

	// 2. Exact scan of every record through the seekable File surface.
	f, err := pugz.NewFileBytes(gz, pugz.FileOptions{Threads: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	sc, err := f.Records(0, pugz.RecordOptions{Framer: fr})
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	for sc.Next() {
		n++
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexact scan: %d records (oracle wrote 20000)\n", n)

	// 3. Synced scan from the middle of a record: Sync skips to the
	// first confirmable boundary at or after the offset.
	from := int64(len(data) / 2)
	sc, err = f.Records(from, pugz.RecordOptions{Framer: fr, Sync: true})
	if err != nil {
		log.Fatal(err)
	}
	if sc.Next() {
		r := sc.Record()
		fmt.Printf("\nsynced scan from decompressed offset %d: first record @%d:\n  %s\n",
			from, r.Offset, r.Data)
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}
