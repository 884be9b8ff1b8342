package gzindex

import (
	"bytes"
	stdflate "compress/flate"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/fastq"
)

// FuzzIndexUnmarshal treats the sidecar as what it is to pugzd:
// untrusted bytes. Unmarshal must parse or reject without panicking,
// and an index that parses must keep the invariants readers rely on.
// Every index that parses is then read back — each whole span, and the
// whole stream — over a payload compressed by the standard library,
// against the standard library's own inflate of it: a read returns
// those bytes or fails with ErrMismatch.
//
// The byte comparison is made for spans whose window is the true
// history at the offset the checkpoint claims. The format has no
// content checksum, so a forged window (with or without shifted
// offsets to match) decodes to other bytes with nothing to notice it
// by; what is checked everywhere is that such a read neither panics
// nor fails with anything but ErrMismatch.
func FuzzIndexUnmarshal(f *testing.F) {
	data := fastq.Generate(fastq.GenOptions{Reads: 1200, Seed: 5})
	var z bytes.Buffer
	w, err := stdflate.NewWriter(&z, 6)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	payload := z.Bytes()
	oracle, err := io.ReadAll(stdflate.NewReader(bytes.NewReader(payload)))
	if err != nil {
		f.Fatal(err)
	}
	honest, err := Build(payload, 48<<10)
	if err != nil {
		f.Fatal(err)
	}
	if len(honest.Checkpoints) < 4 {
		f.Fatalf("only %d checkpoints", len(honest.Checkpoints))
	}

	seed := func(edit func(ix *Index)) []byte {
		blob, err := edited(honest, edit).Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		return blob
	}
	blob := seed(func(*Index) {})
	seed(func(c *Index) { c.Checkpoints[2].Bit++ })
	seed(func(c *Index) { c.Checkpoints[2].Out += 3 })
	seed(func(c *Index) { c.Checkpoints[1].Bit = c.Checkpoints[2].Bit })
	seed(func(c *Index) { c.OutSize += 9; c.EndBit -= 16 })
	seed(func(c *Index) { c.Checkpoints = c.Checkpoints[:1] })
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:26])
	huge := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(huge[22:], 1<<31)
	f.Add(huge)

	// trueWindow reports whether cp carries the real 32 KiB of history
	// before the offset it claims.
	trueWindow := func(cp *Checkpoint) bool {
		if cp.Out > int64(len(oracle)) {
			return false
		}
		want := make([]byte, windowSize)
		hist := oracle[max(0, cp.Out-windowSize):cp.Out]
		copy(want[windowSize-len(hist):], hist)
		return bytes.Equal(cp.Window, want)
	}

	f.Fuzz(func(t *testing.T, blob []byte) {
		ix, err := Unmarshal(blob)
		if err != nil {
			return
		}
		if len(ix.Checkpoints) == 0 || len(ix.Checkpoints) > len(blob)/20 {
			t.Fatalf("%d checkpoints parsed from %d bytes", len(ix.Checkpoints), len(blob))
		}
		for i, cp := range ix.Checkpoints {
			if len(cp.Window) != windowSize || cp.Bit < 0 || cp.Out < 0 || cp.Bit >= ix.EndBit || cp.Out > ix.OutSize ||
				(i > 0 && (cp.Bit <= ix.Checkpoints[i-1].Bit || cp.Out <= ix.Checkpoints[i-1].Out)) {
				t.Fatalf("checkpoint %d (bit %d, out %d, window %d) parsed out of order or range", i, cp.Bit, cp.Out, len(cp.Window))
			}
		}
		read := func(cp *Checkpoint, end int64) {
			// A span claiming more than the stream holds is read one
			// byte past it: that cannot succeed.
			n := min(end-cp.Out, int64(len(oracle))+1)
			if n == 0 {
				return
			}
			buf := make([]byte, n)
			m, err := ix.ReadAt(payload, buf, cp.Out)
			switch {
			case errors.Is(err, ErrMismatch):
			case err != nil:
				t.Fatalf("ReadAt(%d, %d): %v is not ErrMismatch", cp.Out, n, err)
			case !trueWindow(cp):
			case int64(m) != n || cp.Out+n > int64(len(oracle)) || !bytes.Equal(buf, oracle[cp.Out:cp.Out+n]):
				t.Fatalf("ReadAt(%d, %d) = %d bytes and no error, but not the oracle's bytes", cp.Out, n, m)
			}
		}
		for i := range ix.Checkpoints {
			_, end := ix.spanEnd(i)
			read(&ix.Checkpoints[i], end)
		}
		allTrue := true
		for i := range ix.Checkpoints {
			allTrue = allTrue && trueWindow(&ix.Checkpoints[i])
		}
		if allTrue {
			read(&ix.Checkpoints[0], ix.OutSize)
		}
	})
}
