// Example: random access to decompressed content over an io.ReaderAt
// through the seekable pugz.File surface — with and without a
// checkpoint index.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"

	pugz "repro"
	"repro/baseline"
	"repro/internal/fastq"
)

func main() {
	// A ~12 MB synthetic FASTQ corpus, gzip level 6.
	data := fastq.Generate(fastq.GenOptions{Reads: 50000, Seed: 7})
	gz, err := baseline.Compress(data, 6)
	if err != nil {
		log.Fatal(err)
	}

	// Any io.ReaderAt works: an os.File, an mmap, a remote blob
	// adapter. bytes.Reader stands in for one here.
	f, err := pugz.NewFile(bytes.NewReader(gz), int64(len(gz)), pugz.FileOptions{Threads: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	// Positional read at a decompressed offset: exact gunzip bytes.
	// A deep unindexed seek like this runs as a parallel two-pass skip
	// (nothing before the target is translated or materialised), and
	// the restart points it discovers are retained, so a second deep
	// seek resumes near its target instead of re-decoding the file.
	p := make([]byte, 80)
	off := int64(len(data) / 2)
	if _, err := f.ReadAt(p, off); err != nil && err != io.EOF {
		log.Fatal(err)
	}
	fmt.Printf("ReadAt(%d) without index: %q (%d restart points retained)\n",
		off, p[:40], f.Checkpoints())

	// io.ReadSeeker over the decompressed stream.
	if _, err := f.Seek(-200, io.SeekEnd); err != nil {
		log.Fatal(err)
	}
	tail, err := io.ReadAll(f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("last 200 decompressed bytes end with: %q\n", tail[len(tail)-20:])

	// With a checkpoint index, ReadAt inflates only from the nearest
	// checkpoint — the zran baseline the paper compares against.
	// BuildIndex streams over the File's own source in one parallel
	// bounded-memory pass and attaches the result; Marshal produces the
	// side-car blob a later process would load with SetIndex.
	ix, err := f.BuildIndex(1 << 20)
	if err != nil {
		log.Fatal(err)
	}
	blob, err := ix.Marshal()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := f.ReadAt(p, off); err != nil && err != io.EOF {
		log.Fatal(err)
	}
	fmt.Printf("ReadAt(%d) with %d-checkpoint index (%d-byte side-car): %q\n",
		off, ix.Checkpoints(), len(blob), p[:40])

	// The paper's index-free path on the same File: sync to a block
	// near a *compressed* offset and decode with an undetermined
	// context — immediate, approximate, no prior pass.
	res, err := f.RandomAccessAt(int64(len(gz)/2), pugz.RandomAccessOptions{MaxOutput: 1 << 20})
	if err != nil {
		log.Fatal(err)
	}
	clean := 0
	for _, s := range res.Records {
		if s.Unambiguous() {
			clean++
		}
	}
	fmt.Printf("RandomAccessAt(50%% compressed): %d sequences, %d fully resolved\n",
		len(res.Records), clean)
}
