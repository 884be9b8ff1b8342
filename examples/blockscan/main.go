// Block scan: locate DEFLATE block boundaries in a gzip file, both
// exhaustively (sequential decode) and by brute-force bit scanning
// from an arbitrary offset (Section VI-A), then compare.
//
//	go run ./examples/blockscan
package main

import (
	"fmt"
	"log"
	"time"

	pugz "repro"
	"repro/baseline"
	"repro/internal/fastq"
)

func main() {
	data := fastq.Generate(fastq.GenOptions{Reads: 30_000, Seed: 3})
	gz, err := baseline.Compress(data, 6)
	if err != nil {
		log.Fatal(err)
	}

	// Exhaustive index from a full sequential decode.
	blocks, err := pugz.ScanBlocks(gz)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d blocks in %d compressed bytes:\n", len(blocks), len(gz))
	for i, b := range blocks {
		if i > 4 && i < len(blocks)-2 {
			if i == 5 {
				fmt.Println("  ...")
			}
			continue
		}
		fmt.Printf("  block %3d: %-7s bits [%d,%d) -> output bytes [%d,%d)%s\n",
			i, b.Type, b.StartBit, b.EndBit, b.OutStart, b.OutEnd,
			map[bool]string{true: " (final)"}[b.Final])
	}

	// Now pretend we only have a byte offset: sync by brute force.
	probe := int64(len(gz)) / 2
	t := time.Now()
	bit, err := pugz.FindBlock(gz, probe)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(t)

	// Verify it is a true boundary.
	onLattice := false
	for _, b := range blocks {
		if b.StartBit == bit {
			onLattice = true
			break
		}
	}
	fmt.Printf("\nbrute-force sync from byte %d: found block start at bit %d in %v (on true lattice: %v)\n",
		probe, bit, elapsed, onLattice)
}
