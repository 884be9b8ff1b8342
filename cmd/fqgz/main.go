// Command fqgz performs random access to DNA sequences inside a
// gzip-compressed FASTQ file (the paper's fqgz prototype): it syncs to
// a DEFLATE block near the requested compressed offset, decompresses
// with an undetermined context, and prints the DNA-like sequences the
// heuristic parser extracts — flagging those still containing
// undetermined ('?') characters.
//
// With "-" (or -stream) the whole file is instead decompressed through
// the bounded-memory parallel pipeline and every read's sequence line
// is emitted — no random access, no slurping, works on pipes:
//
//	fqgz -offset 50%  file.fastq.gz           # seek to half the file
//	fqgz -offset 1000000 -max 4000000 file.fastq.gz
//	fqgz -offset 25% -clean file.fastq.gz     # only unambiguous reads
//	cat file.fastq.gz | fqgz -                # stream all sequences
//	fqgz -stream -summary file.fastq.gz       # stream + count only
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	pugz "repro"
	"repro/internal/cliutil"
)

func main() {
	offsetFlag := flag.String("offset", "25%", "compressed byte offset (absolute or NN%)")
	maxOut := flag.Int64("max", 0, "stop after this many decompressed bytes (0 = to end)")
	minLen := flag.Int("minlen", pugz.DefaultMinSeqLen, "minimum extracted sequence length")
	clean := flag.Bool("clean", false, "print only sequences without undetermined characters")
	summary := flag.Bool("summary", false, "print statistics instead of sequences")
	stream := flag.Bool("stream", false, "decompress the whole stream in parallel and emit every sequence")
	threads := cliutil.Threads()
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fqgz [-offset POS] [-max N] [-clean|-summary] file.fastq.gz\n       fqgz [-stream] [-t N] [-max N] [-summary] file.fastq.gz|-")
		os.Exit(2)
	}
	in := flag.Arg(0)
	if in == "-" || *stream {
		// Random-access-only flags are meaningless here; reject them
		// rather than silently answering a different query. (-clean is
		// allowed: streamed output is exact, so everything is clean.)
		offsetSet := false
		flag.Visit(func(f *flag.Flag) { offsetSet = offsetSet || f.Name == "offset" })
		if offsetSet {
			fmt.Fprintln(os.Stderr, "fqgz: -offset applies to random access only; streaming always starts at byte 0")
			os.Exit(2)
		}
		streamAll(in, *threads, *maxOut, *minLen, *summary)
		return
	}

	// Random access goes through the seekable pugz.File surface: only
	// the compressed extent actually decoded is read from disk, so a
	// huge file costs no more than the requested window.
	src, err := os.Open(in)
	if err != nil {
		fatal(err)
	}
	defer src.Close()
	fi, err := src.Stat()
	if err != nil {
		fatal(err)
	}
	offset, err := cliutil.ParseOffset(*offsetFlag, fi.Size())
	if err != nil {
		fatal(err)
	}
	f, err := pugz.NewFile(src, fi.Size(), pugz.FileOptions{Threads: *threads})
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	res, err := f.RandomAccessAt(offset, pugz.RandomAccessOptions{
		MaxOutput: *maxOut,
		Framer:    pugz.FASTQFraming{MinLen: *minLen},
	})
	if err != nil {
		fatal(err)
	}

	if *summary {
		clean, dirty := 0, 0
		for _, s := range res.Records {
			if s.Unambiguous() {
				clean++
			} else {
				dirty++
			}
		}
		fmt.Printf("offset %d: synced to payload bit %d\n", offset, res.BlockBit)
		fmt.Printf("decoded %d bytes across %d blocks\n", len(res.Text), len(res.Blocks))
		fmt.Printf("sequences: %d total, %d unambiguous, %d with undetermined chars\n",
			len(res.Records), clean, dirty)
		if res.FirstResolvedBlock >= 0 {
			fmt.Printf("first sequence-resolved block: #%d after %.2f MB\n",
				res.FirstResolvedBlock, float64(res.DelayBytes)/1e6)
			if frac, ok := res.UnambiguousAfterResolved(); ok {
				fmt.Printf("unambiguous after resolved block: %.1f%%\n", frac*100)
			}
		} else {
			fmt.Println("no sequence-resolved block found")
		}
		return
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for i, s := range res.Records {
		if *clean && !s.Unambiguous() {
			continue
		}
		fmt.Fprintf(w, ">seq_%d offset=%d undetermined=%d\n%s\n", i, s.Offset, s.Undetermined, s.Data)
	}
}

// streamAll decompresses the entire file (or stdin) through the
// bounded-memory parallel pipeline and walks FASTQ records as they
// stream out — every sequence is fully resolved, so there is nothing
// undetermined to flag.
func streamAll(in string, threads int, maxOut int64, minLen int, summary bool) {
	src, closeSrc, err := cliutil.OpenInput(in)
	if err != nil {
		fatal(err)
	}
	defer closeSrc()
	r, err := pugz.NewReader(src, pugz.StreamOptions{Threads: threads})
	if err != nil {
		fatal(err)
	}
	defer r.Close()

	var text io.Reader = r
	if maxOut > 0 {
		text = io.LimitReader(r, maxOut)
	}
	br := bufio.NewReaderSize(text, 1<<20)

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	var offset int64
	line, emitted := 0, 0
	for {
		// ReadString keeps the delimiter, so offsets count true
		// decompressed bytes even for CRLF input or a final line with
		// no newline.
		raw, err := br.ReadString('\n')
		if len(raw) > 0 {
			// FASTQ: header, sequence, separator, quality — sequence
			// is every 4th line starting from the second.
			seq := strings.TrimRight(raw, "\r\n")
			if line%4 == 1 && len(seq) >= minLen {
				if !summary {
					fmt.Fprintf(w, ">seq_%d offset=%d undetermined=0\n%s\n", emitted, offset, seq)
				}
				emitted++
			}
			offset += int64(len(raw))
			line++
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal(err)
		}
	}
	if summary {
		st := r.Stats()
		fmt.Printf("streamed %d bytes (%d members, %d batches, peak compressed window %d bytes)\n",
			offset, st.Members, st.Batches, st.MaxBufferedCompressed)
		fmt.Printf("sequences: %d total, all unambiguous (stream mode is exact)\n", emitted)
	}
}

func fatal(err error) {
	cliutil.Fatal("fqgz", err)
}
