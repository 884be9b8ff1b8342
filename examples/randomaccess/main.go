// Random access: extract DNA sequences from the middle of a
// gzip-compressed FASTQ file without decompressing the prefix — the
// paper's fqgz use case, including the undetermined-context view of
// Figure 1.
//
//	go run ./examples/randomaccess
package main

import (
	"fmt"
	"log"

	pugz "repro"
	"repro/baseline"
	"repro/internal/fastq"
)

func main() {
	// A low-compression FASTQ file: the case the paper shows is
	// virtually exact for random access (Table I, "lowest" row).
	data := fastq.Generate(fastq.GenOptions{Reads: 40_000, Seed: 7})
	gz, err := baseline.Compress(data, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Jump to the middle of the *compressed* file.
	offset := int64(len(gz) / 2)
	res, err := pugz.RandomAccess(gz, offset, pugz.RandomAccessOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("requested compressed offset %d; synced to a DEFLATE block at payload bit %d\n",
		offset, res.BlockBit)
	fmt.Printf("decoded %d bytes in %d blocks\n", len(res.Text), len(res.Blocks))

	// The first decoded bytes still carry '?' where back-references
	// reached the unknown initial context (Figure 1's left columns).
	fmt.Printf("\nfirst 128 bytes of block 0:\n%q\n", res.Text[:128])

	if res.FirstResolvedBlock >= 0 {
		fmt.Printf("\nfirst sequence-resolved block: #%d, after %.2f MB of decompression\n",
			res.FirstResolvedBlock, float64(res.DelayBytes)/1e6)
	}

	clean := 0
	for _, s := range res.Records {
		if s.Unambiguous() {
			clean++
		}
	}
	fmt.Printf("extracted %d DNA-like sequences, %d unambiguous (%.1f%%)\n",
		len(res.Records), clean, 100*float64(clean)/float64(len(res.Records)))

	if frac, ok := res.UnambiguousAfterResolved(); ok {
		fmt.Printf("after the first sequence-resolved block: %.1f%% unambiguous\n", frac*100)
	}

	// Show a few fully resolved reads.
	fmt.Println("\nsample extracted sequences:")
	shown := 0
	for _, s := range res.Records {
		if s.Unambiguous() && len(s.Data) >= 60 {
			fmt.Printf("  %s...\n", s.Data[:60])
			shown++
			if shown == 3 {
				break
			}
		}
	}
}
