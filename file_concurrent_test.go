package pugz_test

// Concurrency stress for the File surface: many goroutines mixing
// ReadAt, Read/Seek, Size, Checkpoints and Close on the same File,
// asserting every delivered byte against the stdlib gzip oracle. Run
// under -race (race-rest group) this is the proof that the snapshot +
// cursor-pool refactor left no shared mutable state behind.

import (
	"bytes"
	stdgzip "compress/gzip"
	"io"
	"math/rand"
	"sync"
	"testing"

	pugz "repro"
)

// stdlibGunzip is the oracle: stdlib multistream decode of gz.
func stdlibGunzip(t *testing.T, gz []byte) []byte {
	t.Helper()
	zr, err := stdgzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	defer zr.Close()
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFileConcurrentStress(t *testing.T) {
	gzSingle := extGz(t, 5000, 81, 6)
	gzA, gzB := extGz(t, 2500, 82, 6), extGz(t, 2500, 83, 1)
	gzMulti := append(append([]byte{}, gzA...), gzB...)

	type variant struct {
		name  string
		gz    []byte
		ops   int // per-goroutine op count: cursor reads are far costlier than indexed ones
		setup func(t *testing.T, f *pugz.File)
	}
	variants := []variant{
		{name: "cold", gz: gzSingle, ops: 8, setup: func(*testing.T, *pugz.File) {}},
		{name: "autoindexed", gz: gzSingle, ops: 8, setup: func(t *testing.T, f *pugz.File) {
			// Prime the auto-index: the measuring pass harvests restart
			// points that concurrent deep reads then share.
			if _, err := f.Size(); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "indexed", gz: gzSingle, ops: 32, setup: func(t *testing.T, f *pugz.File) {
			ix, err := pugz.BuildIndex(gzSingle, 128<<10)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := ix.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if err := f.SetIndex(blob); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "multimember", gz: gzMulti, ops: 8, setup: func(*testing.T, *pugz.File) {}},
	}

	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			want := stdlibGunzip(t, v.gz)
			f, err := pugz.NewFileBytes(v.gz, pugz.FileOptions{
				Threads:              2,
				MinChunk:             16 << 10,
				BatchCompressedBytes: 256 << 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			v.setup(t, f)

			const (
				readers = 4
				readLen = 4 << 10
			)
			opsEach := v.ops
			var wg sync.WaitGroup

			// Positional readers: random offsets, byte-identity required.
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)*1000 + 7))
					buf := make([]byte, readLen)
					for i := 0; i < opsEach; i++ {
						off := rng.Int63n(int64(len(want)))
						n, err := f.ReadAt(buf, off)
						if err != nil && err != io.EOF {
							t.Errorf("ReadAt(%d): %v", off, err)
							return
						}
						wantN := int64(readLen)
						if rest := int64(len(want)) - off; rest < wantN {
							wantN = rest
						}
						if int64(n) != wantN {
							t.Errorf("ReadAt(%d): n=%d, want %d", off, n, wantN)
							return
						}
						if !bytes.Equal(buf[:n], want[off:off+int64(n)]) {
							t.Errorf("ReadAt(%d): content mismatch", off)
							return
						}
					}
				}(g)
			}

			// One Seek/Read streamer: it is the only goroutine moving the
			// shared position, so its view must stay byte-identical even
			// while positional readers churn the cursor pool.
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(4242))
				buf := make([]byte, readLen)
				for i := 0; i < opsEach; i++ {
					off := rng.Int63n(int64(len(want)) - readLen)
					if _, err := f.Seek(off, io.SeekStart); err != nil {
						t.Errorf("Seek(%d): %v", off, err)
						return
					}
					if _, err := io.ReadFull(f, buf); err != nil {
						t.Errorf("Read at %d: %v", off, err)
						return
					}
					if !bytes.Equal(buf, want[off:off+readLen]) {
						t.Errorf("Read at %d: content mismatch", off)
						return
					}
				}
			}()

			// Size/Checkpoints poller: the first Size calls race on the
			// singleflight; all must agree with the oracle.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < opsEach; i++ {
					size, err := f.Size()
					if err != nil {
						t.Errorf("Size: %v", err)
						return
					}
					if size != int64(len(want)) {
						t.Errorf("Size = %d, want %d", size, len(want))
						return
					}
					_ = f.Checkpoints()
				}
			}()

			// Closer: Close only drains idle cursors; the File must stay
			// fully usable for everyone else.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					if err := f.Close(); err != nil {
						t.Errorf("Close: %v", err)
						return
					}
				}
			}()

			wg.Wait()
		})
	}
}

// TestFileConcurrentSizeSingleflight: concurrent first Size calls on
// an unindexed File must share one measuring pass and agree.
func TestFileConcurrentSizeSingleflight(t *testing.T) {
	gz := extGz(t, 6000, 84, 6)
	want := stdlibGunzip(t, gz)
	src := &trackingReaderAt{data: gz}
	f, err := pugz.NewFile(src, int64(len(gz)), pugz.FileOptions{Threads: 2, MinChunk: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const callers = 8
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			size, err := f.Size()
			if err != nil {
				t.Errorf("Size: %v", err)
				return
			}
			if size != int64(len(want)) {
				t.Errorf("Size = %d, want %d", size, len(want))
			}
		}()
	}
	wg.Wait()
	// One measuring pass reads the compressed file once (plus pipeline
	// read-ahead slack); eight independent passes could not fit this.
	if src.read.Load() > 2*int64(len(gz)) {
		t.Fatalf("concurrent Size read %d compressed bytes (file is %d): measuring pass not shared",
			src.read.Load(), len(gz))
	}
}

// TestFileConcurrentDeepSeeksMergeAutoIndex: concurrent deep reads on
// a cold File must merge their harvested restart points into one
// bounded auto-index (no loss, no unbounded accretion) while staying
// byte-identical.
func TestFileConcurrentDeepSeeksMergeAutoIndex(t *testing.T) {
	gz := extGz(t, 8000, 85, 6)
	want := stdlibGunzip(t, gz)
	f, err := pugz.NewFileBytes(gz, pugz.FileOptions{
		Threads:          2,
		MinChunk:         16 << 10,
		AutoIndexSpacing: 128 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const divers = 6
	var wg sync.WaitGroup
	for g := 0; g < divers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 4<<10)
			off := int64(len(want)) * int64(g+2) / (divers + 2)
			n, err := f.ReadAt(buf, off)
			if err != nil && err != io.EOF {
				t.Errorf("deep ReadAt(%d): %v", off, err)
				return
			}
			if !bytes.Equal(buf[:n], want[off:off+int64(n)]) {
				t.Errorf("deep ReadAt(%d): content mismatch", off)
			}
		}(g)
	}
	wg.Wait()

	cps := f.Checkpoints()
	if cps == 0 {
		t.Fatal("concurrent deep seeks harvested no restart points")
	}
	// Overlapping harvests must converge (neighbour suppression), not
	// accrete one set per cursor: the retained points fit the spacing
	// grid with a small constant of slack.
	if max := int(int64(len(want))/(64<<10)) + divers; cps > max {
		t.Fatalf("auto-index accreted %d checkpoints (bound %d)", cps, max)
	}
}
