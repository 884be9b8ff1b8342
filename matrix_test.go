package pugz

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gzindex"
)

// The shape x surface x threads matrix: every input shape the engine
// has had a cliff on, through every decoding surface, at one, two and
// eight threads. Each cell must return stdlib's bytes and stay inside
// two deterministic work bounds; a best-of-3 wall-time backstop catches
// what the counters miss (a comparison that fails is measured again, up
// to twice, before it counts).
//
// Work bound 1, sync offsets tried per payload bit: at most 1. Every
// probe is bounded to its own span and each span is probed at most
// once per run, so one run tries at most one candidate per bit of its
// payload. A many-member decode starts one run per member, whose probes
// reach into later members, but the member's end stops them within a
// candidate, far below the bound. (Unbounded probes — each scanning to
// the end of the payload, once per member — are what the bound catches.)
//
// Work bound 2, bytes decoded per byte of output extent the call needed
// (offset+len for a ReadAt, the whole output otherwise): at most 3 +
// workers, where workers = min(T, GOMAXPROCS)-1. Each span is decoded
// once; on top of that a call may decode once more the chunk straddling
// a skip target (the re-decode of a measured chunk, at most the whole
// output again), a Reader reads at most its in-flight window ahead of a
// ReadAt (bounded by the whole output here), and at a member's end each
// worker may have decoded up to one block of speculation past it, at
// most a member's worth.
const (
	matrixBitsPerBit      = 1.0
	matrixDecodedPerNeed  = 3.0
	matrixWallOverT1      = 2.0
	matrixT1OverGunzip    = 10.0
	matrixWallGranularity = 2 * time.Millisecond
)

// matrixShape is one input of the matrix.
type matrixShape struct {
	name  string
	gz    []byte
	plain []byte
	first int    // decompressed size of the first member (what an index covers)
	index []byte // the sequential reference index of the first member, marshalled
}

// jsonlText is seeded JSON-lines log text.
func jsonlText(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	levels := []string{"info", "warn", "debug", "error"}
	paths := []string{"/api/v1/items", "/login", "/static/app.js", "/healthz", "/api/v1/users"}
	var b bytes.Buffer
	for i := 0; b.Len() < n; i++ {
		fmt.Fprintf(&b, `{"ts":%d,"level":%q,"path":%q,"status":%d,"ms":%d,"user":"u%05d"}`+"\n",
			1700000000000+int64(i)*37+rng.Int63n(37), levels[rng.Intn(4)], paths[rng.Intn(5)],
			200+100*rng.Intn(4), rng.Intn(2000), rng.Intn(50000))
	}
	return b.Bytes()[:n]
}

// binaryRecords is seeded structured binary: 32-byte records with an
// incrementing id, a small-alphabet type, a timestamp and random bytes.
func binaryRecords(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, n+32)
	var rec [32]byte
	for i := uint64(0); len(out) < n; i++ {
		binary.LittleEndian.PutUint64(rec[0:], i)
		binary.LittleEndian.PutUint32(rec[8:], uint32(rng.Intn(6)))
		binary.LittleEndian.PutUint64(rec[12:], 1700000000+i*3)
		rng.Read(rec[20:])
		out = append(out, rec[:]...)
	}
	return out[:n]
}

// gzipLevel is stdlib gzip at level.
func gzipLevel(t *testing.T, data []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// bgzfMember is one BGZF member: a gzip header with the "BC" subfield
// declaring the member's length, a stdlib level-6 payload, the trailer.
func bgzfMember(t *testing.T, data []byte) []byte {
	t.Helper()
	var payload bytes.Buffer
	w, _ := flate.NewWriter(&payload, 6)
	w.Write(data)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	m := []byte{0x1f, 0x8b, 8, 4, 0, 0, 0, 0, 0, 0xff, 6, 0, 'B', 'C', 2, 0, 0, 0}
	m = append(m, payload.Bytes()...)
	m = binary.LittleEndian.AppendUint32(m, crc32.ChecksumIEEE(data))
	m = binary.LittleEndian.AppendUint32(m, uint32(len(data)))
	binary.LittleEndian.PutUint16(m[16:], uint16(len(m)-1))
	return m
}

// bgzfStd is data as BGZF (members of 0xff00 input bytes) ending in the
// empty end-of-file member.
func bgzfStd(t *testing.T, data []byte) []byte {
	var out []byte
	for len(data) > 0 {
		n := min(len(data), 0xff00)
		out = append(out, bgzfMember(t, data[:n])...)
		data = data[n:]
	}
	return append(out, bgzfMember(t, nil)...)
}

func matrixShapes(t *testing.T) []matrixShape {
	const size = 4 << 20
	text := jsonlText(size, 1)
	bin := binaryRecords(size, 2)
	stored := text[:2<<20]
	var members []byte
	piece := size / 64
	for i := 0; i < 64; i++ {
		members = append(members, gzipLevel(t, text[i*piece:(i+1)*piece], 6)...)
		if i%8 == 3 {
			members = append(members, gzipLevel(t, nil, 6)...)
		}
	}
	// 4 MiB of one 61-byte line: stdlib emits it as 258-byte matches,
	// 16 Ki tokens to a block, so the whole file is one block (plus the
	// final one) expanding ~1000x.
	line := []byte("@read ACGTTGCAACGTAGCTAGCTAGGATCCGATCGATCGTAGCTAGCTAGCATGCA+\n")
	block := bytes.Repeat(line, size/len(line))
	shapes := []matrixShape{
		{"text", gzipLevel(t, text, 6), text, size, nil},
		{"binary", gzipLevel(t, bin, 6), bin, size, nil},
		{"stored", gzipLevel(t, stored, 0), stored, len(stored), nil},
		{"bgzf", bgzfStd(t, text), text, 0xff00, nil},
		{"members", members, text, piece, nil},
		{"block", gzipLevel(t, block, 6), block, len(block), nil},
	}
	for i := range shapes {
		shapes[i].index = slurpIndexBlob(t, shapes[i].gz, gzindex.DefaultSpacing)
	}
	return shapes
}

// matrixSurface runs one surface over gz and returns the bytes it
// produced and the output extent the call needed.
type matrixSurface struct {
	name string
	run  func(sh matrixShape, threads int) (got, want []byte, need int64, err error)
}

var matrixSurfaces = []matrixSurface{
	{"Decompress", func(sh matrixShape, threads int) ([]byte, []byte, int64, error) {
		out, _, err := Decompress(sh.gz, Options{Threads: threads})
		return out, sh.plain, int64(len(sh.plain)), err
	}},
	{"NewReader", func(sh matrixShape, threads int) ([]byte, []byte, int64, error) {
		r, err := NewReader(bytes.NewReader(sh.gz), StreamOptions{Threads: threads})
		if err != nil {
			return nil, nil, 0, err
		}
		defer r.Close()
		out, err := io.ReadAll(r)
		return out, sh.plain, int64(len(sh.plain)), err
	}},
	{"NewIndexFromReader", func(sh matrixShape, threads int) ([]byte, []byte, int64, error) {
		ix, err := NewIndexFromReader(bytes.NewReader(sh.gz), 0, StreamOptions{Threads: threads})
		if err != nil {
			return nil, nil, 0, err
		}
		got, err := ix.Marshal()
		return got, sh.index, int64(sh.first), err
	}},
	{"File.Size", func(sh matrixShape, threads int) ([]byte, []byte, int64, error) {
		f, err := NewFile(bytes.NewReader(sh.gz), int64(len(sh.gz)), FileOptions{Threads: threads})
		if err != nil {
			return nil, nil, 0, err
		}
		defer f.Close()
		n, err := f.Size()
		got := binary.LittleEndian.AppendUint64(nil, uint64(n))
		want := binary.LittleEndian.AppendUint64(nil, uint64(len(sh.plain)))
		return got, want, int64(len(sh.plain)), err
	}},
	{"File.ReadAt", func(sh matrixShape, threads int) ([]byte, []byte, int64, error) {
		f, err := NewFile(bytes.NewReader(sh.gz), int64(len(sh.gz)), FileOptions{Threads: threads})
		if err != nil {
			return nil, nil, 0, err
		}
		defer f.Close()
		off := int64(len(sh.plain)) * 9 / 10
		p := make([]byte, 4096)
		n, err := f.ReadAt(p, off)
		if err == io.EOF && n == len(p) {
			err = nil
		}
		return p[:n], sh.plain[off : off+int64(len(p))], off + int64(len(p)), err
	}},
}

// TestShapeSurfaceThreadsMatrix: see the comment at the top of the file.
func TestShapeSurfaceThreadsMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("the matrix decodes ~1.5 GB in total")
	}
	shapes := matrixShapes(t)
	for _, sh := range shapes {
		if want, err := stdGunzip(sh.gz); err != nil || !bytes.Equal(want, sh.plain) {
			t.Fatalf("%s: stdlib disagrees with the corpus (%v)", sh.name, err)
		}
		gunzip := bestOf3(func() { stdGunzip(sh.gz) })
		for _, s := range matrixSurfaces {
			walls := map[int]time.Duration{}
			for _, threads := range []int{1, 2, 8} {
				cell := fmt.Sprintf("%s/%s/T=%d", sh.name, s.name, threads)
				var got, want []byte
				var need int64
				var err error
				before := core.TotalWork()
				walls[threads] = bestOf3(func() { got, want, need, err = s.run(sh, threads) })
				w := core.TotalWork()
				runs := float64(4) // bestOf3 ran the cell four times: a warm-up and three timed
				if err != nil {
					t.Errorf("%s: %v", cell, err)
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: output differs from stdlib (%d vs %d bytes)", cell, len(got), len(want))
				}
				if raceEnabled {
					runs = 1
				}
				bits := float64(w.BitsTried-before.BitsTried) / runs
				decoded := float64(w.Decoded-before.Decoded) / runs
				if limit := matrixBitsPerBit * float64(len(sh.gz)) * 8; bits > limit {
					t.Errorf("%s: %.0f sync offsets tried, bound %.0f (%.1f per payload bit)", cell, bits, limit, matrixBitsPerBit)
				}
				workers := min(threads, runtime.GOMAXPROCS(0)) - 1
				if limit := (matrixDecodedPerNeed + float64(workers)) * float64(need); decoded > limit {
					t.Errorf("%s: %.0f bytes decoded for %d needed, bound %.0f", cell, decoded, need, limit)
				}
			}
			if raceEnabled {
				continue // the race detector slows goroutines unevenly
			}
			// A wall bound that fails is measured again, twice, keeping each
			// side's fastest run: other tests' load can slow one side of a
			// comparison, but never makes a cliff's extra work disappear.
			remeasure := func(threads int) {
				walls[threads] = min(walls[threads], bestOf3(func() { s.run(sh, threads) }))
			}
			t1Limit := func() time.Duration {
				return time.Duration(matrixT1OverGunzip*float64(gunzip)) + matrixWallGranularity
			}
			tnLimit := func() time.Duration {
				return time.Duration(matrixWallOverT1*float64(walls[1])) + matrixWallGranularity
			}
			for try := 0; try < 2 && walls[1] > t1Limit(); try++ {
				remeasure(1)
				gunzip = min(gunzip, bestOf3(func() { stdGunzip(sh.gz) }))
			}
			if walls[1] > t1Limit() {
				t.Errorf("%s/%s: T=1 took %v, stdlib gunzip %v (bound %.0fx)", sh.name, s.name, walls[1], gunzip, matrixT1OverGunzip)
			}
			for _, threads := range []int{2, 8} {
				for try := 0; try < 2 && walls[threads] > tnLimit(); try++ {
					remeasure(1)
					remeasure(threads)
				}
				if walls[threads] > tnLimit() {
					t.Errorf("%s/%s: T=%d took %v, T=1 %v (bound %.0fx)", sh.name, s.name, threads, walls[threads], walls[1], matrixWallOverT1)
				}
			}
		}
	}
}

// bestOf3 runs f once to warm up, then three times, and returns the
// fastest of the three. Under the race detector, whose timings the
// matrix ignores, it runs f once.
func bestOf3(f func()) time.Duration {
	f()
	if raceEnabled {
		return 0
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		f()
		best = min(best, time.Since(t0))
	}
	return best
}
