package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	pugz "repro"
)

const (
	rounds      = 5       // a run's timed phase is split into this many equal rounds
	nominalSecs = 20      // the run length the pinned op counts below are sized for
	setupReps   = 3       // set-up is repeated this often; setup_s is the median
	indexSpace  = 1 << 20 // checkpoint spacing of every index built here
	copyBufSize = 256 << 10
)

// opResult is what one operation reports. dur is the op's own wall
// time (oracle checks excluded where the API allows); first is the time
// to the first decompressed byte, 0 where the API returns everything at
// once. A non-nil err is a failed op.
type opResult struct {
	n     int64 // decompressed bytes delivered to the consumer
	dur   time.Duration
	first time.Duration
	err   error
}

// fixture is a workload after set-up: everything the timed phase needs.
type fixture struct {
	clients int
	op      func(client int, sp *spans) opResult
	// amplification returns the engine's running totals of bytes
	// decoded-or-skipped and bytes served; nil where the whole stream is
	// delivered and the ratio is 1 by definition.
	amplification func() (inflated, served int64)
	// postCheck runs once after the timed phase; each error is a failed
	// op.
	postCheck func() []error
	close     func()
	corpora   []*corpus
}

// workload is one entry of BENCHMARK.json's workloads. Its op count is
// pinned, not calibrated at run time, so that parent and change issue
// the same operations (and, for the range trace, the same requests):
// ops is what one client does in a round of a nominalSecs run, sized so
// that the seed's timed phase lasts about that long on the builder's
// 2-core box. --seconds scales the count, never the other way round.
type workload struct {
	name    string
	tailPct int // the tail percentile its op count supports
	warmup  int // untimed ops before round 1, over all clients
	ops     int // ops per client per round at nominalSecs
	setup   func(cfg config) (*fixture, error)
}

var workloads = []workload{
	{"bulk_seq", 75, 2, 21, setupBulkSeq},             // 105 ops a run
	{"bulk_par", 75, 2, 30, setupBulkPar},             // 150
	{"index_build", 75, 2, 14, setupIndexBuild},       // 70
	{"serve_ranges", 95, 200, 1280, setupServeRanges}, // 6400 per client
}

// roundOps is the pinned op count of one client in one round of a run
// of the given nominal length.
func (w *workload) roundOps(seconds float64) int {
	return max(1, int(float64(w.ops)*seconds/nominalSecs+0.5))
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// checkStream is the oracle for a whole-stream op: length and CRC-32.
func (c *corpus) checkStream(n int64, crc uint32) error {
	if n != int64(len(c.plain)) {
		return fmt.Errorf("%s: %d bytes out, oracle has %d", c.name, n, len(c.plain))
	}
	if crc != c.crc {
		return fmt.Errorf("%s: CRC-32 %08x, oracle %08x", c.name, crc, c.crc)
	}
	return nil
}

func setupBulkSeq(cfg config) (*fixture, error) {
	c, err := makeReads(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	op := func(_ int, sp *spans) opResult {
		id := sp.newOp()
		t0 := time.Now()
		out, _, err := pugz.Decompress(c.gz, pugz.Options{Threads: 1})
		t1 := time.Now()
		if err == nil {
			err = c.checkStream(int64(len(out)), crc32.ChecksumIEEE(out))
		}
		t2 := time.Now()
		root := sp.add("op", 0, id, t0, t2)
		sp.add("pugz.Decompress", root, id, t0, t1)
		sp.add("oracle.crc32", root, id, t1, t2)
		return opResult{n: int64(len(out)), dur: t1.Sub(t0), err: err}
	}
	return &fixture{clients: 1, op: op, corpora: []*corpus{c}, close: func() {}}, nil
}

// crcCounter is the consumer of a streamed op: it counts and checksums
// what it is given and notes when the first byte arrived.
type crcCounter struct {
	n     int64
	crc   uint32
	first time.Time
}

func (w *crcCounter) Write(p []byte) (int, error) {
	if w.n == 0 && len(p) > 0 {
		w.first = time.Now()
	}
	w.n += int64(len(p))
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	return len(p), nil
}

// drain copies r into w through buf. r is wrapped in a plain io.Reader
// so that no WriterTo shortcut changes who copies, or through what.
func (w *crcCounter) drain(r io.Reader, buf []byte) error {
	_, err := io.CopyBuffer(w, struct{ io.Reader }{r}, buf)
	return err
}

func setupBulkPar(cfg config) (*fixture, error) {
	c, err := makeReads(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, copyBufSize)
	op := func(_ int, sp *spans) opResult {
		id := sp.newOp()
		var w crcCounter
		t0 := time.Now()
		r, err := pugz.NewReader(bytes.NewReader(c.gz), pugz.StreamOptions{Threads: cfg.threads})
		t1 := time.Now()
		if err != nil {
			return opResult{dur: t1.Sub(t0), err: err}
		}
		err = w.drain(r, buf)
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		t2 := time.Now()
		if err == nil {
			err = c.checkStream(w.n, w.crc)
		}
		first := t2
		if !w.first.IsZero() {
			first = w.first
		}
		root := sp.add("op", 0, id, t0, t2)
		sp.add("pugz.NewReader", root, id, t0, t1)
		sp.add("reader.first_byte", root, id, t1, first)
		sp.add("reader.drain", root, id, first, t2)
		return opResult{n: w.n, dur: t2.Sub(t0), first: first.Sub(t0), err: err}
	}
	return &fixture{clients: 1, op: op, corpora: []*corpus{c}, close: func() {}}, nil
}

func setupIndexBuild(cfg config) (*fixture, error) {
	c, err := makeReads(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	var firstBlob []byte
	op := func(_ int, sp *spans) opResult {
		id := sp.newOp()
		t0 := time.Now()
		ix, err := pugz.NewIndexFromReader(bytes.NewReader(c.gz), indexSpace, pugz.StreamOptions{Threads: cfg.threads})
		t1 := time.Now()
		if err != nil {
			return opResult{dur: t1.Sub(t0), err: err}
		}
		blob, err := ix.Marshal()
		t2 := time.Now()
		switch {
		case err != nil:
		case ix.Size() != int64(len(c.plain)):
			err = fmt.Errorf("index covers %d bytes, oracle has %d", ix.Size(), len(c.plain))
		case ix.Checkpoints() == 0:
			err = fmt.Errorf("index has no checkpoints")
		case firstBlob == nil:
			firstBlob = blob
		case !bytes.Equal(blob, firstBlob):
			err = fmt.Errorf("index blob differs from the first build's")
		}
		root := sp.add("op", 0, id, t0, t2)
		sp.add("pugz.NewIndexFromReader", root, id, t0, t1)
		sp.add("Index.Marshal", root, id, t1, t2)
		return opResult{n: int64(len(c.plain)), dur: t2.Sub(t0), err: err}
	}
	// Outside the timed phase: the marshalled index must load again and
	// reproduce the whole oracle, read through it from its checkpoints.
	postCheck := func() []error {
		ix, err := pugz.LoadIndex(c.gz, firstBlob)
		if err != nil {
			return []error{fmt.Errorf("LoadIndex: %w", err)}
		}
		var w crcCounter
		p := make([]byte, indexSpace)
		for off := int64(0); off < ix.Size(); {
			n, err := ix.ReadAt(c.gz, p, off)
			if n == 0 {
				return []error{fmt.Errorf("index read at %d: %v", off, err)}
			}
			w.Write(p[:n])
			off += int64(n)
		}
		if err := c.checkStream(w.n, w.crc); err != nil {
			return []error{fmt.Errorf("read through the loaded index: %w", err)}
		}
		return nil
	}
	return &fixture{clients: 1, op: op, postCheck: postCheck, corpora: []*corpus{c}, close: func() {}}, nil
}

// roundResult is what one timed round measured.
type roundResult struct {
	durs      []float64 // op wall times, ms
	traced    []float64 // in a traced run: those of the ops that recorded spans
	plain     []float64 // in a traced run: those of the ops that did not
	firsts    []float64 // times to first byte, ms
	bytes     int64
	wall      float64 // s
	cpu       float64 // s
	attempted int
	failed    int
}

func (r *roundResult) outMBps() float64 { return float64(r.bytes) / 1e6 / r.wall }
func (r *roundResult) cpuPerGB() float64 {
	return r.cpu / (float64(r.bytes) / 1e9)
}

// failures collects the first few failed ops' reasons for the report.
type failures struct {
	mu   sync.Mutex
	msgs []string // guarded by mu
}

func (f *failures) add(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.msgs) < 5 {
		f.msgs = append(f.msgs, err.Error())
		fmt.Fprintln(os.Stderr, "failed op:", err)
	}
}

// runOps runs a closed loop of exactly perClient ops on every client
// and gathers the results. The collector runs before each round so
// every round starts from the same heap state; GOGC is left alone.
// With a recorder, each op records its spans or not as sp.sampled says.
func runOps(fx *fixture, perClient int, sp *spans, fails *failures) roundResult {
	runtime.GC()
	res := make([]roundResult, fx.clients)
	var wg sync.WaitGroup
	cpu0 := cpuSeconds()
	t0 := time.Now()
	for c := 0; c < fx.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &res[c]
			for i := 0; i < perClient; i++ {
				rec := sp
				if sp != nil && !sp.sampled() {
					rec = nil
				}
				o := fx.op(c, rec)
				r.attempted++
				if o.err != nil {
					r.failed++
					fails.add(o.err)
					continue
				}
				if o.first == 0 {
					o.first = o.dur
				}
				r.durs = append(r.durs, ms(o.dur))
				switch {
				case rec != nil:
					r.traced = append(r.traced, ms(o.dur))
				case sp != nil:
					r.plain = append(r.plain, ms(o.dur))
				}
				r.firsts = append(r.firsts, ms(o.first))
				r.bytes += o.n
			}
		}(c)
	}
	wg.Wait()
	sum := roundResult{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0}
	for _, r := range res {
		sum.durs = append(sum.durs, r.durs...)
		sum.traced = append(sum.traced, r.traced...)
		sum.plain = append(sum.plain, r.plain...)
		sum.firsts = append(sum.firsts, r.firsts...)
		sum.bytes += r.bytes
		sum.attempted += r.attempted
		sum.failed += r.failed
	}
	return sum
}
