package blockfind

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/deflate"
	"repro/internal/fastq"
	"repro/internal/flate"
)

// corpus builds a compressed FASTQ payload plus its true block starts.
func corpus(t *testing.T, level int, reads int) (payload []byte, starts []int64) {
	t.Helper()
	data := fastq.Generate(fastq.GenOptions{Reads: reads, Seed: 11})
	payload, err := deflate.Compress(data, level)
	if err != nil {
		t.Fatal(err)
	}
	_, spans, err := flate.DecompressRecorded(payload, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range spans {
		starts = append(starts, s.Event.StartBit)
	}
	return payload, starts
}

func TestFindsTrueBlockStarts(t *testing.T) {
	for _, level := range []int{1, 6, 9} {
		payload, starts := corpus(t, level, 4000)
		if len(starts) < 4 {
			t.Fatalf("level %d: want >= 4 blocks, got %d", level, len(starts))
		}
		f := New()
		// From a probe point strictly inside block k, the finder must
		// return the start of block k+1 (it can never return a start
		// before the probe).
		for k := 0; k < len(starts)-2; k += 2 {
			probe := starts[k] + 40 // inside block k, past its header
			got, err := f.Next(payload, probe)
			if err != nil {
				t.Fatalf("level %d block %d: %v", level, k, err)
			}
			want := starts[k+1]
			if got != want {
				t.Fatalf("level %d: probe %d: found bit %d, want %d", level, probe, got, want)
			}
		}
	}
}

func TestFindFromExactBoundary(t *testing.T) {
	payload, starts := corpus(t, 6, 3000)
	f := New()
	// Probing exactly at a block start (of a non-final block) returns
	// that start itself.
	got, err := f.Next(payload, starts[1])
	if err != nil {
		t.Fatal(err)
	}
	if got != starts[1] {
		t.Fatalf("got %d, want %d", got, starts[1])
	}
}

func TestNotFoundInGarbage(t *testing.T) {
	// Uniform random bytes ought to contain no confirmed block start
	// that ALSO yields >=1KiB of pure ASCII output; with 64 KiB of
	// garbage the stringent checks should reject everything.
	garbage := make([]byte, 64<<10)
	seed := uint32(12345)
	for i := range garbage {
		seed = seed*1664525 + 1013904223
		garbage[i] = byte(seed >> 24)
	}
	f := New()
	if bit, err := f.Next(garbage, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("found spurious block at bit %d (err=%v)", bit, err)
	}
	if f.Stats.BitsTried != int64(len(garbage))*8 {
		t.Fatalf("tried %d bits, want %d", f.Stats.BitsTried, len(garbage)*8)
	}
}

func TestNextBeforeHonoursLimit(t *testing.T) {
	payload, starts := corpus(t, 6, 3000)
	f := New()
	// Limit below the next true start: nothing to find.
	if _, err := f.NextBefore(payload, starts[0]+40, starts[1]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestConfirmationNearEOF(t *testing.T) {
	// Probing inside the third-to-last block: the candidate is the
	// second-to-last block and confirmation immediately hits the final
	// block, which must count as success (AllowFinal path).
	payload, starts := corpus(t, 6, 3000)
	if len(starts) < 4 {
		t.Skip("too few blocks")
	}
	probe := starts[len(starts)-3] + 40
	f := New()
	got, err := f.Next(payload, probe)
	if err != nil {
		t.Fatal(err)
	}
	if got != starts[len(starts)-2] {
		t.Fatalf("got %d, want %d (second-to-last block start)", got, starts[len(starts)-2])
	}
}

func TestFinalBlockNeverFound(t *testing.T) {
	// "The first bit of the block needs to be 0 ... we will never seek
	// to the very last block" (Appendix X-A): probing inside the
	// second-to-last block leaves only the final block ahead, so the
	// search must come up empty.
	payload, starts := corpus(t, 6, 3000)
	if len(starts) < 3 {
		t.Skip("too few blocks")
	}
	probe := starts[len(starts)-2] + 40
	f := New()
	if bit, err := f.Next(payload, probe); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expected ErrNotFound, got bit %d err %v", bit, err)
	}
}

// TestStopEndsSearch: a set Stop flag ends a search before its next
// candidate, so an abandoned probe costs at most one candidate more.
func TestStopEndsSearch(t *testing.T) {
	payload, starts := corpus(t, 6, 3000)
	f := New()
	var stop atomic.Bool
	f.Stop = &stop
	if bit, err := f.Next(payload, starts[0]+1); err != nil || bit != starts[1] {
		t.Fatalf("unstopped search: bit %d err %v, want %d", bit, err, starts[1])
	}
	stop.Store(true)
	tried := f.Stats.BitsTried
	if _, err := f.Next(payload, starts[0]+1); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped search: err %v, want ErrStopped", err)
	}
	if f.Stats.BitsTried != tried {
		t.Fatalf("stopped search tried %d candidates", f.Stats.BitsTried-tried)
	}
}
