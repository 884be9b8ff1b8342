package core

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/flate"
	"repro/internal/tracked"
)

// speculating raises GOMAXPROCS so a Threads=4 run has three workers
// speculating beside the resolver, whatever the host's core count.
func speculating(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// balanced records the goroutine count and the pooled windows taken
// before a run; check asserts that, once the run returned, no goroutine
// of it is left beyond the extra ones allowed (the source reader of a
// pipeline not yet closed) and every pooled window is back.
type balanced struct {
	goroutines int
	windows    int64
}

func startBalance() balanced {
	return balanced{runtime.NumGoroutine(), tracked.WindowsOut()}
}

func (b balanced) check(t *testing.T, what string, extra int) {
	t.Helper()
	// A worker that has called wg.Done may still be on its way out
	// when the run returns.
	settle(t, what, b.goroutines+extra)
	if w := tracked.WindowsOut(); w != b.windows {
		t.Fatalf("%s: %d pooled windows out after the run, %d before", what, w, b.windows)
	}
}

// settle waits for goroutines that exit asynchronously (a closed
// pipeline's source reader) and asserts the count is back to base.
func settle(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, want at most %d\n%s", what, n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// specOptions cuts a ~2 MB FASTQ payload into many 32 KiB spans, four
// in flight.
var specOptions = PipelineOptions{Threads: 4, BatchCompressedBytes: 128 << 10, MinChunk: 8 << 10}

// TestSpeculationEmitErrorMidStream: a consumer that stops mid-stream
// (the Reader's Close makes Emit fail) ends the run with spans in
// flight; RunMemberOpts returns only after every task has exited.
func TestSpeculationEmitErrorMidStream(t *testing.T) {
	speculating(t)
	payload := corpusPayload(t, 12000, 41, 6)
	stop := errors.New("consumer gone")
	b := startBalance()
	p := NewPipeline(bytes.NewReader(payload), specOptions)
	calls := 0
	_, err := p.RunMemberOpts(MemberRun{Emit: func([]byte) error {
		if calls++; calls == 3 {
			p.Close()
			return stop
		}
		return nil
	}})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want the consumer's", err)
	}
	b.check(t, "emit error", 1)
	settle(t, "emit error", b.goroutines)
}

// stallReader serves data, then blocks until release is closed.
type stallReader struct {
	data    []byte
	release chan struct{}
}

func (s *stallReader) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		<-s.release
		return 0, io.EOF
	}
	n := copy(p, s.data)
	s.data = s.data[n:]
	return n, nil
}

// TestSpeculationCloseWhileStalled: Close from another goroutine while
// the resolver waits on a stalled source ends the run; no worker
// outlives it.
func TestSpeculationCloseWhileStalled(t *testing.T) {
	speculating(t)
	payload := corpusPayload(t, 12000, 41, 6)
	src := &stallReader{data: payload[:len(payload)/2], release: make(chan struct{})}
	defer close(src.release)
	b := startBalance()
	p := NewPipeline(src, specOptions)
	_, err := p.RunMemberOpts(MemberRun{Emit: func([]byte) error {
		go p.Close()
		return nil
	}})
	if err == nil {
		t.Fatal("a closed pipeline finished the member")
	}
	b.check(t, "close", 1) // the source reader, stuck in Read until release
}

// TestSpeculationPastMemberEnd: spans speculated past a member's final
// block (into the framing and the next member) are dropped when the
// member ends, the window comes back positioned at the member end, and
// the next member decodes exactly — streaming and resident alike.
func TestSpeculationPastMemberEnd(t *testing.T) {
	speculating(t)
	a := corpusFastq(1500, 51)
	pa := corpusPayload(t, 1500, 51, 6)
	bData := corpusFastq(12000, 52)
	pb := corpusPayload(t, 12000, 52, 6)
	frame := []byte{0xde, 0xad, 0xbe, 0xef}
	src := append(append(append([]byte{}, pa...), frame...), pb...)

	bal := startBalance()
	p := NewPipeline(bytes.NewReader(src), specOptions)
	var out []byte
	collect := func(b []byte) error { out = append(out, b...); return nil }
	end, err := p.RunMember(collect)
	if err != nil || !bytes.Equal(out, a) {
		t.Fatalf("member A: err=%v, %d bytes, want %d", err, len(out), len(a))
	}
	bal.check(t, "member end", 1)
	w := p.Window()
	w.DiscardTo((end + 7) / 8)
	if got, err := w.Peek(len(frame)); err != nil || !bytes.Equal(got, frame) {
		t.Fatalf("framing not at the window head: %q, %v", got, err)
	}
	w.Discard(len(frame))
	out = nil
	if _, err := p.RunMember(collect); err != nil || !bytes.Equal(out, bData) {
		t.Fatalf("member B: err=%v, %d bytes, want %d", err, len(out), len(bData))
	}
	p.Close()
	settle(t, "member end", bal.goroutines)

	got, m, err := DecompressPayload(src, Options{Threads: 4, MinChunk: 8 << 10})
	if err != nil || !bytes.Equal(got, a) {
		t.Fatalf("resident member A: err=%v, %d bytes, want %d", err, len(got), len(a))
	}
	if m.PayloadEndBit != end {
		t.Fatalf("resident member A ends at bit %d, streaming at %d", m.PayloadEndBit, end)
	}
	bal.check(t, "resident member end", 0)
}

// TestSpeculationCorruptSpan: a corrupt span fails the run (its exact
// take-over fails too) while later spans are in flight; nothing leaks.
func TestSpeculationCorruptSpan(t *testing.T) {
	speculating(t)
	bad := bytes.Clone(corpusPayload(t, 12000, 41, 6))
	_, blocks, err := flate.DecompressRecorded(bad, 0, true)
	if err != nil || len(blocks) < 8 {
		t.Fatalf("%d blocks, err %v", len(blocks), err)
	}
	// A block a third of the way in gets the reserved type BTYPE=3.
	at := blocks[len(blocks)/3].Event.StartBit
	for b := at + 1; b <= at+2; b++ {
		bad[b/8] |= 1 << (b % 8)
	}
	b := startBalance()
	p := NewPipeline(bytes.NewReader(bad), specOptions)
	_, err = p.RunMember(func([]byte) error { return nil })
	if err == nil {
		t.Fatal("corrupt stream decoded")
	}
	b.check(t, "corrupt span", 1)
	p.Close()
	settle(t, "corrupt span", b.goroutines)

	if _, _, err := DecompressPayload(bad, Options{Threads: 4, MinChunk: 8 << 10}); err == nil {
		t.Fatal("corrupt payload decoded")
	}
	b.check(t, "resident corrupt span", 0)
}

// failReader serves n bytes, then fails.
type failReader struct {
	data []byte
	err  error
}

func (f *failReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// TestSpeculationFailingSource: a source that fails mid-stream surfaces
// its own error, with spans in flight over the bytes it did deliver.
func TestSpeculationFailingSource(t *testing.T) {
	speculating(t)
	payload := corpusPayload(t, 12000, 41, 6)
	boom := errors.New("disk on fire")
	b := startBalance()
	p := NewPipeline(&failReader{data: payload[:len(payload)*3/5], err: boom}, specOptions)
	_, err := p.RunMember(func([]byte) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the source's", err)
	}
	b.check(t, "failing source", 1)
	p.Close()
	settle(t, "failing source", b.goroutines)
}

// TestSpeculationWindowCompaction: tiny source reads and spans make the
// window slide, relocate and compact over and over while workers read
// pinned snapshots of it. Under -race this is the check that no byte a
// running task reads is ever moved or overwritten; everywhere it checks
// the bytes and the residency bound.
func TestSpeculationWindowCompaction(t *testing.T) {
	speculating(t)
	data := corpusFastq(12000, 41)
	payload := corpusPayload(t, 12000, 41, 6)
	const batch, readSize = 64 << 10, 4 << 10
	for _, measure := range []bool{false, true} {
		p := NewPipeline(bytes.NewReader(payload), PipelineOptions{
			Threads: 4, BatchCompressedBytes: batch, MinChunk: 8 << 10, ReadSize: readSize,
		})
		var got []byte
		run := MemberRun{Emit: func(b []byte) error { got = append(got, b...); return nil }}
		if measure {
			run.SkipTo = int64(len(data)) - 1000 // every span but the last measured
		}
		res, err := p.RunMemberOpts(run)
		p.Close()
		want := data
		if measure {
			want = data[run.SkipTo:]
		}
		if err != nil || !bytes.Equal(got, want) || res.Out != int64(len(data)) {
			t.Fatalf("measure=%v: err=%v, %d bytes (want %d), out %d", measure, err, len(got), len(want), res.Out)
		}
		if peak := p.Window().MaxBuffered(); peak > batch+batchSlack+3*readSize {
			t.Fatalf("measure=%v: window peaked at %d", measure, peak)
		}
		if w := p.Work(); w.BitsTried == 0 {
			t.Fatalf("measure=%v: no span was synced (%+v)", measure, w)
		}
	}
}
