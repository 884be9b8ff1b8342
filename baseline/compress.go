package baseline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"repro/internal/bitio"
	"repro/internal/deflate"
)

// parallelChunk is the input bytes CompressParallel deflates per
// independent segment (pigz uses 128 KiB; a larger chunk costs less
// ratio because the LZ window resets at every chunk boundary).
const parallelChunk = 256 << 10

// Compress produces a gzip file from data at the given level (0-9)
// with gzip/zlib level semantics: greedy parsing below level 4, lazy
// (non-greedy) parsing from level 4 up. The XFL header byte is set the
// way gzip sets it, so compression-level classification behaves like
// the UNIX file command.
func Compress(data []byte, level int) ([]byte, error) {
	return CompressNamed(data, level, "")
}

// CompressNamed is Compress with an embedded FNAME header field (none
// when name is empty).
func CompressNamed(data []byte, level int, name string) ([]byte, error) {
	if err := checkLevel(level); err != nil {
		return nil, err
	}
	payload, err := deflate.Compress(data, level)
	if err != nil {
		return nil, err
	}
	return gzipMember(data, level, name, payload), nil
}

// CompressParallel compresses data with pigz-style chunked
// parallelism (the easy direction the paper's introduction contrasts
// with decompression): 256 KiB chunks deflated independently on up to
// threads goroutines, each ended by an empty stored sync block so the
// segments concatenate on byte boundaries into one ordinary gzip
// member (the last carries BFINAL). Output bytes are independent of the
// thread count; the ratio cost of the per-chunk window reset is a few
// percent.
func CompressParallel(data []byte, level, threads int) ([]byte, error) {
	if err := checkLevel(level); err != nil {
		return nil, err
	}
	threads = max(threads, 1)
	nChunks := max((len(data)+parallelChunk-1)/parallelChunk, 1) // empty input still emits one (final) segment
	segments := make([][]byte, nChunks)
	errs := make([]error, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for i := t; i < nChunks; i += threads {
				chunk := data[i*parallelChunk : min((i+1)*parallelChunk, len(data))]
				w := bitio.NewWriter(len(chunk)/2 + 64)
				if err := deflate.CompressSegment(w, chunk, level, i == nChunks-1); err != nil {
					errs[t] = err
					return
				}
				segments[i] = w.Bytes()
			}
		}(t)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return gzipMember(data, level, "", segments...), nil
}

func checkLevel(level int) error {
	if level < 0 || level > 9 {
		return fmt.Errorf("baseline: level %d out of range [0,9]", level)
	}
	return nil
}

// gzipMember frames DEFLATE segments as one gzip member of data: a
// header with a zero MTIME (for determinism), the XFL byte gzip sets
// for level and an optional FNAME, the segments, and the CRC-32/ISIZE
// trailer.
func gzipMember(data []byte, level int, name string, segments ...[]byte) []byte {
	const fname = 1 << 3
	flg := byte(0)
	size := 10 + 8
	if name != "" {
		flg |= fname
		size += len(name) + 1
	}
	for _, s := range segments {
		size += len(s)
	}
	out := make([]byte, 0, size)
	out = append(out, 0x1f, 0x8b, 8 /* CM deflate */, flg,
		0, 0, 0, 0, // MTIME
		xflForLevel(level), 255 /* OS unknown */)
	if name != "" {
		out = append(out, name...)
		out = append(out, 0)
	}
	for _, s := range segments {
		out = append(out, s...)
	}
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(data))
	return binary.LittleEndian.AppendUint32(out, uint32(len(data)))
}

// xflForLevel mirrors gzip: XFL=2 at maximum compression, XFL=4 at
// fastest, 0 otherwise.
func xflForLevel(level int) byte {
	switch {
	case level >= 9:
		return 2
	case level == 1:
		return 4
	default:
		return 0
	}
}
