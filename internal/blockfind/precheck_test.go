package blockfind

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/bitio"
	"repro/internal/fastq"
	rflate "repro/internal/flate"
)

// referenceNextBefore is NextBefore without the precheck: one
// candidate DecodeBlock, and confirmFrom after it, at every bit. It
// shares f's decoders, reader and counters.
func referenceNextBefore(f *Finder, data []byte, fromBit, limitBit int64) (int64, error) {
	limitBit = min(limitBit, int64(len(data))*8)
	f.reader = bitio.NewReader(data)
	for bit := fromBit; bit < limitBit; bit++ {
		f.Stats.BitsTried++
		if err := f.reader.Reset(bit); err != nil {
			return 0, err
		}
		if _, err := f.candidate.DecodeBlock(f.reader, &f.sink); err != nil {
			f.Stats.Rejects++
			continue
		}
		if f.confirmFrom(data) {
			return bit, nil
		}
		f.Stats.ConfirmFails++
	}
	return 0, ErrNotFound
}

// rawDeflate is stdlib DEFLATE of data at level, with the start bit of
// every block, final included.
func rawDeflate(t testing.TB, data []byte, level int) ([]byte, []int64) {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(data)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, spans, err := rflate.DecompressRecorded(buf.Bytes(), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	var starts []int64
	for _, s := range spans {
		starts = append(starts, s.Event.StartBit)
	}
	return buf.Bytes(), starts
}

// shapes are the inputs the parity and fuzz seeds cover: FASTQ, JSON
// lines, binary records (which never confirm under the text predicate)
// and one line repeated (one huge block).
func shapes() map[string][]byte {
	const size = 1 << 20
	rng := rand.New(rand.NewSource(3))
	var jsonl bytes.Buffer
	for i := 0; jsonl.Len() < size; i++ {
		fmt.Fprintf(&jsonl, `{"ts":%d,"level":%q,"status":%d,"user":"u%05d"}`+"\n",
			1700000000000+int64(i)*37+rng.Int63n(37), []string{"info", "warn", "error"}[rng.Intn(3)],
			200+100*rng.Intn(4), rng.Intn(50000))
	}
	bin := make([]byte, size)
	for i := 0; i < size; i += 32 {
		bin[i] = byte(i >> 5)
		bin[i+1] = byte(rng.Intn(6))
		rng.Read(bin[i+8 : i+32])
	}
	line := []byte("@read ACGTTGCAACGTAGCTAGCTAGGATCCGATCGATCGTAGCTAGCTAGCATGCA+\n")
	return map[string][]byte{
		"fastq":  fastq.Generate(fastq.GenOptions{Reads: 4000, Seed: 5}),
		"jsonl":  jsonl.Bytes()[:size],
		"binary": bin,
		"block":  bytes.Repeat(line, size/len(line)),
	}
}

// TestNextBeforeParity: with the precheck in front, NextBefore returns
// the same bit, the same error and the same Stats as the reference loop
// that decodes a block at every bit, from 64 offsets of every shape at
// levels 0, 1, 6 and 9: half just before a true block start (so the
// search finds it), half anywhere. It also times both, alternating,
// and logs the median cost per search of each.
func TestNextBeforeParity(t *testing.T) {
	const offsets, window = 64, 48 << 10 // bits searched from an arbitrary offset
	for name, plain := range shapes() {
		for _, level := range []int{0, 1, 6, 9} {
			data, starts := rawDeflate(t, plain, level)
			rng := rand.New(rand.NewSource(int64(level)))
			var shipped, reference []time.Duration
			for i := range offsets {
				from := rng.Int63n(int64(len(data)) * 8)
				limit := from + window
				if i%2 == 0 {
					s := starts[rng.Intn(len(starts))]
					from = max(s-rng.Int63n(window/2), 0)
					limit = s + 1
				}
				got, want := New(), New()
				t0 := time.Now()
				gotBit, gotErr := got.NextBefore(data, from, limit)
				t1 := time.Now()
				wantBit, wantErr := referenceNextBefore(want, data, from, limit)
				shipped, reference = append(shipped, t1.Sub(t0)), append(reference, time.Since(t1))
				if gotBit != wantBit || !errors.Is(gotErr, wantErr) || !errors.Is(wantErr, gotErr) || got.Stats != want.Stats {
					t.Fatalf("%s level %d [%d, %d): got bit %d err %v stats %+v, reference bit %d err %v stats %+v",
						name, level, from, limit, gotBit, gotErr, got.Stats, wantBit, wantErr, want.Stats)
				}
			}
			slices.Sort(shipped)
			slices.Sort(reference)
			t.Logf("%s level %d: median search %v with the precheck, %v without (%.1fx)", name, level,
				shipped[offsets/2], reference[offsets/2], float64(reference[offsets/2])/float64(max(shipped[offsets/2], 1)))
		}
	}
}

// BenchmarkNextBefore: searches from 64 offsets of level-6 FASTQ, each
// to the next block start, with the precheck and with the reference
// loop.
func BenchmarkNextBefore(b *testing.B) {
	data, starts := rawDeflate(b, shapes()["fastq"], 6)
	rng := rand.New(rand.NewSource(1))
	var from []int64
	for range 64 {
		from = append(from, rng.Int63n(starts[len(starts)-2]))
	}
	for _, bc := range []struct {
		name string
		find func(f *Finder, from int64) (int64, error)
	}{
		{"precheck", func(f *Finder, from int64) (int64, error) { return f.Next(data, from) }},
		{"reference", func(f *Finder, from int64) (int64, error) {
			return referenceNextBefore(f, data, from, int64(len(data))*8)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			f := New()
			for i := range b.N {
				if _, err := bc.find(f, from[i%len(from)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzSyncPrecheck: wherever the precheck rejects a bit, the finder's
// candidate DecodeBlock fails there too, with the default text
// predicate and with a digits-only one.
func FuzzSyncPrecheck(f *testing.F) {
	for _, level := range []int{0, 1, 6, 9} {
		data, starts := rawDeflate(f, fastq.Generate(fastq.GenOptions{Reads: 300, Seed: 7}), level)
		for _, s := range starts {
			f.Add(data, uint32(s), false)
		}
	}
	var fixed bytes.Buffer
	w, _ := flate.NewWriter(&fixed, flate.HuffmanOnly)
	w.Write(bytes.Repeat([]byte("0123456789\n"), 200))
	w.Close()
	f.Add(fixed.Bytes(), uint32(0), true)
	digits := func(b byte) bool { return b >= '0' && b <= '9' || b == '\n' }
	f.Fuzz(func(t *testing.T, data []byte, bit uint32, onlyDigits bool) {
		if len(data) == 0 {
			return
		}
		at := int64(bit) % (int64(len(data)) * 8)
		opts := rflate.Options{}
		if onlyDigits {
			opts.ValidByte = digits
		}
		fd := NewWithOptions(opts)
		r := bitio.NewReader(data)
		if fd.candidate.Candidates(r, at, 1) != 0 {
			return
		}
		if err := r.Reset(at); err != nil {
			t.Fatal(err)
		}
		if _, err := fd.candidate.DecodeBlock(r, &fd.sink); err == nil {
			t.Fatalf("precheck rejected bit %d, which decodes one block", at)
		}
	})
}
