package experiments

import (
	"fmt"
	"io"

	"repro/baseline"
	"repro/internal/fastq"

	pugz "repro"
)

// RunFig1 reproduces Figure 1: after a random access into a
// gzip-compressed FASTQ file, show the first bytes of a selection of
// decompressed blocks. Early blocks are dominated by undetermined
// ('?') characters; later blocks resolve as literals displace the
// initial context.
func RunFig1(c Config, w io.Writer) error {
	c = c.WithDefaults()
	header(w, "Figure 1: decompression from a random location (normal level)")
	data := fastq.Generate(fastq.GenOptions{
		Reads: int(20000 * clampScale(c.Scale)),
		Seed:  55 + c.Seed,
	})
	gz, err := baseline.Compress(data, 6)
	if err != nil {
		return err
	}
	res, err := pugz.RandomAccess(gz, int64(len(gz)/3), pugz.RandomAccessOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "random access at compressed byte %d -> synced to payload bit %d, %d blocks decoded\n",
		len(gz)/3, res.BlockBit, len(res.Blocks))

	show := []int{0, 1, 10, 50}
	for _, idx := range show {
		if idx >= len(res.Blocks) {
			break
		}
		b := res.Blocks[idx]
		end := b.OutStart + 192
		if end > b.OutEnd {
			end = b.OutEnd
		}
		undet := 0
		snippet := res.Text[b.OutStart:end]
		for _, ch := range snippet {
			if ch == pugz.Undetermined {
				undet++
			}
		}
		fmt.Fprintf(w, "\nblock %d (first %d bytes, %d undetermined):\n", idx, len(snippet), undet)
		for off := 0; off < len(snippet); off += 64 {
			e := off + 64
			if e > len(snippet) {
				e = len(snippet)
			}
			fmt.Fprintf(w, "  %s\n", sanitize(snippet[off:e]))
		}
	}
	fmt.Fprintln(w, "\nexpected shape: successive blocks contain fewer and fewer '?' characters.")
	return nil
}

// sanitize renders control characters visibly.
func sanitize(b []byte) []byte {
	out := make([]byte, len(b))
	for i, ch := range b {
		if ch == '\n' {
			out[i] = '.'
		} else if ch < 32 || ch > 126 {
			out[i] = '#'
		} else {
			out[i] = ch
		}
	}
	return out
}
