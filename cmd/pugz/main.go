// Command pugz is a parallel gunzip: it decompresses gzip files using
// the two-pass algorithm of the paper, producing output byte-identical
// to gunzip's.
//
// By default input is streamed through the bounded-memory pipeline
// (pugz.NewReader), so multi-GiB files and pipes decompress without
// the compressed or decompressed payload ever residing in memory:
//
//	pugz -t 8 file.fastq.gz              # decompress to file.fastq
//	pugz -c -t 8 file.fastq.gz > out     # decompress to stdout
//	cat file.fastq.gz | pugz -c - > out  # decompress from a pipe
//	pugz -stats -t 8 file.fastq.gz       # print a pipeline summary
//	pugz -slurp -stats file.fastq.gz     # whole-file mode, per-chunk stats
//
// With -offset (and optionally -length) pugz extracts a range of the
// *decompressed* stream through the seekable pugz.File surface instead
// of emitting everything — without loading the whole file:
//
//	pugz -c -offset 1000000 -length 4096 file.gz   # bytes [1000000, 1004096)
//	pugz -mkindex file.gz.gzx file.gz              # build a checkpoint index
//	pugz -c -index file.gz.gzx -offset 50% -length 4096 file.gz
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	pugz "repro"
	"repro/internal/cliutil"
)

func main() {
	threads := cliutil.Threads()
	stdout := flag.Bool("c", false, "write to standard output")
	output := flag.String("o", "", "output file (default: input without .gz)")
	verify := flag.Bool("check", false, "verify CRC-32 and ISIZE (pugz skips checksums by default, like the paper)")
	stats := flag.Bool("stats", false, "print phase timing to stderr")
	batch := flag.Int("batch", 0, "compressed bytes per streaming batch (default 4 MiB x threads)")
	maxWindow := flag.Int("maxwindow", 0, "cap on the buffered compressed window; lower it to fail fast on corrupt streams (default max(64 MiB, 4 x batch))")
	slurp := flag.Bool("slurp", false, "read the whole file into memory and use the two-pass whole-file engine")
	offset := flag.String("offset", "", "extract starting at this decompressed offset (absolute or NN% of the decompressed size); requires a regular file")
	length := flag.Int64("length", 0, "with -offset: number of decompressed bytes to extract (0 = to end)")
	indexPath := flag.String("index", "", "sidecar checkpoint index (from -mkindex) accelerating -offset extraction")
	mkindex := flag.String("mkindex", "", "build a checkpoint index of the input and write it to this path, then exit")
	spacing := flag.Int64("spacing", 0, "with -mkindex: checkpoint spacing in decompressed bytes (default 1 MiB)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pugz [-t N] [-c|-o out] [-check] [-stats] [-batch N] [-maxwindow N] [-slurp] file.gz|-")
		fmt.Fprintln(os.Stderr, "       pugz [-t N] [-c|-o out] [-offset POS [-length N]] [-index file.gzx] file.gz")
		fmt.Fprintln(os.Stderr, "       pugz -mkindex file.gzx file.gz")
		os.Exit(2)
	}
	in := flag.Arg(0)

	if *mkindex != "" {
		runMkindex(in, *mkindex, *spacing, *threads, *batch, *maxWindow)
		return
	}
	if *offset != "" {
		runRange(in, *offset, *length, *indexPath, *threads, *stdout, *output)
		return
	}

	src, closeSrc, err := cliutil.OpenInput(in)
	if err != nil {
		fatal(err)
	}
	defer closeSrc()

	dst, commit, abort := openDst(in, *stdout, *output)

	if *slurp {
		runSlurped(src, dst, commit, abort, *threads, *verify, *stats)
		return
	}

	t0 := time.Now()
	r, err := pugz.NewReader(src, pugz.StreamOptions{
		Threads:              *threads,
		BatchCompressedBytes: *batch,
		VerifyChecksums:      *verify,
		MaxWindowBytes:       *maxWindow,
	})
	if err != nil {
		abort()
		fatal(err)
	}
	defer r.Close()
	w := bufio.NewWriterSize(dst, 1<<20)
	n, err := io.Copy(w, r)
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		abort()
		fatal(err)
	}
	if err := commit(); err != nil {
		fatal(err)
	}
	if *stats {
		wall := time.Since(t0)
		st := r.Stats()
		fmt.Fprintf(os.Stderr, "pugz: %d bytes out in %v (%.0f MB/s decompressed)\n",
			n, wall, float64(n)/1e6/wall.Seconds())
		fmt.Fprintf(os.Stderr, "  members=%d batches=%d peak compressed window=%d bytes\n",
			st.Members, st.Batches, st.MaxBufferedCompressed)
	}
}

// runRange extracts a decompressed byte range through the seekable
// pugz.File surface: indexed extraction decodes only from the nearest
// checkpoint; unindexed extraction scans forward with bounded memory.
func runRange(in, offsetSpec string, length int64, indexPath string, threads int, stdout bool, output string) {
	if in == "-" {
		fatal(fmt.Errorf("-offset needs a seekable file, not a pipe"))
	}
	src, err := os.Open(in)
	if err != nil {
		fatal(err)
	}
	defer src.Close()
	fi, err := src.Stat()
	if err != nil {
		fatal(err)
	}
	f, err := pugz.NewFile(src, fi.Size(), pugz.FileOptions{Threads: threads})
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if indexPath != "" {
		blob, err := os.ReadFile(indexPath)
		if err != nil {
			fatal(err)
		}
		if err := f.SetIndex(blob); err != nil {
			fatal(err)
		}
	}

	var off int64
	if strings.HasSuffix(offsetSpec, "%") {
		size, err := f.Size()
		if err != nil {
			fatal(err)
		}
		off, err = cliutil.ParseOffset(offsetSpec, size)
		if err != nil {
			fatal(err)
		}
	} else if off, err = cliutil.ParseOffset(offsetSpec, 0); err != nil {
		fatal(err)
	}

	dst, commit, abort := openDst(in, stdout, output)
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		abort()
		fatal(err)
	}
	var rd io.Reader = f
	if length > 0 {
		rd = io.LimitReader(f, length)
	}
	w := bufio.NewWriterSize(dst, 1<<20)
	// Large copy chunks matter when an index is attached: each indexed
	// read inflates from the nearest checkpoint, so amortise that over
	// a checkpoint-spacing-sized buffer rather than io.Copy's 32 KiB.
	if _, err := io.CopyBuffer(w, rd, make([]byte, 1<<20)); err != nil {
		abort()
		fatal(err)
	}
	if err := w.Flush(); err != nil {
		abort()
		fatal(err)
	}
	if err := commit(); err != nil {
		fatal(err)
	}
}

// runMkindex builds the zran-style checkpoint index of the input and
// writes its serialised form next to the data, for later -index runs.
// The input streams through the parallel pipeline — nothing is slurped,
// so peak memory is bounded by the batch size, not the file size, and
// pipes work:
//
//	zcat-producing-process | pugz -mkindex big.gzx -
func runMkindex(in, out string, spacing int64, threads, batch, maxWindow int) {
	src, closeSrc, err := cliutil.OpenInput(in)
	if err != nil {
		fatal(err)
	}
	defer closeSrc()
	ix, err := pugz.NewIndexFromReader(src, spacing, pugz.StreamOptions{
		Threads:              threads,
		BatchCompressedBytes: batch,
		MaxWindowBytes:       maxWindow,
	})
	if err != nil {
		fatal(err)
	}
	blob, err := ix.Marshal()
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "pugz: %d checkpoints over %d decompressed bytes -> %s (%d bytes)\n",
		ix.Checkpoints(), ix.Size(), out, len(blob))
}

// runSlurped is the pre-streaming path: the whole compressed file in
// memory, whole-file two-pass decompression, detailed per-chunk stats.
func runSlurped(src io.Reader, dst io.Writer, commit func() error, abort func(), threads int, verify, stats bool) {
	gz, err := io.ReadAll(src)
	if err != nil {
		abort()
		fatal(err)
	}
	t0 := time.Now()
	out, st, err := pugz.Decompress(gz, pugz.Options{
		Threads:         threads,
		VerifyChecksums: verify,
	})
	if err != nil {
		abort()
		fatal(err)
	}
	wall := time.Since(t0)
	if _, err := dst.Write(out); err != nil {
		abort()
		fatal(err)
	}
	if err := commit(); err != nil {
		fatal(err)
	}
	if stats {
		fmt.Fprintf(os.Stderr, "pugz: %d -> %d bytes in %v (%.0f MB/s compressed)\n",
			len(gz), len(out), wall, float64(len(gz))/1e6/wall.Seconds())
		fmt.Fprintf(os.Stderr, "  members=%d chunks=%d sync=%v pass1=%v pass2(seq)=%v pass2(par)=%v\n",
			st.Members, len(st.Chunks), st.SyncWall, st.Pass1Wall, st.Pass2SeqWall, st.Pass2ParWall)
		for i, c := range st.Chunks {
			fmt.Fprintf(os.Stderr, "  chunk %2d: bits [%d,%d) out=%d unresolved=%d find=%v pass1=%v pass2=%v\n",
				i, c.StartBit, c.EndBit, c.OutBytes, c.SymbolsUnresolved, c.Find, c.Pass1, c.Pass2)
		}
	}
}

// openDst resolves the output target: stdout with -c (or stdin input),
// -o, or the input path with .gz stripped. File output goes to a
// temporary sibling that commit renames into place, so a failed run
// never truncates or replaces an existing good file with partial
// output.
func openDst(in string, stdout bool, output string) (w io.Writer, commit func() error, abort func()) {
	if stdout || (in == "-" && output == "") {
		return os.Stdout, func() error { return nil }, func() {}
	}
	dst := output
	if dst == "" {
		dst = strings.TrimSuffix(in, ".gz")
		if dst == in {
			dst = in + ".out"
		}
	}
	if fi, err := os.Stat(dst); err == nil && !fi.Mode().IsRegular() {
		// /dev/null, a FIFO, ...: write through directly; the
		// tmp+rename dance would replace the special file.
		f, err := os.OpenFile(dst, os.O_WRONLY, 0)
		if err != nil {
			fatal(err)
		}
		return f, f.Close, func() { f.Close() }
	}
	tmp := dst + ".pugz-tmp"
	f, err := os.Create(tmp)
	if err != nil {
		fatal(err)
	}
	commit = func() error {
		if err := f.Close(); err != nil {
			return err
		}
		return os.Rename(tmp, dst)
	}
	abort = func() {
		f.Close()
		os.Remove(tmp)
	}
	return f, commit, abort
}

func fatal(err error) {
	cliutil.Fatal("pugz", err)
}
