package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	pugz "repro"
	"repro/internal/bitio"
	"repro/internal/blockfind"
	"repro/internal/core"
	"repro/internal/flate"
	"repro/internal/framing"
	"repro/internal/gzindex"
	"repro/internal/gzipx"
	"repro/internal/huffman"
	"repro/internal/tracked"
)

const (
	ladderBytes = 8 << 20 // the ladder decodes the head of the workload's reads, this long at scale 1
	ladderReps  = 9       // repetitions behind every rung's median at scale 1
	readSize    = 16 << 10
	readCount   = 200 // positional reads behind every read-path p50 at scale 1
	serveOps    = 600 // requests of the ladder's own range trace at scale 1
)

// RFC 1951 length-symbol tables (symbols 257..285), which the fast
// literal/length table fuses into its cells.
var (
	lengthBase = []uint16{
		3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
		35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258,
	}
	lengthExtra = []uint8{
		0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
		3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
	}
	codeLenOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

// ladder measures every layer from outside, by timing calls into its
// exported functions on one corpus, bottom rung first. Each repetition
// is a span; each rung's output is checked against the oracle once,
// outside the timing, and a mismatch is a failed op.
type ladder struct {
	cfg     config
	c       *corpus           // the ladder's corpus
	payload []byte            // c's raw DEFLATE stream
	blocks  []flate.BlockSpan // every block of payload
	logs    []byte            // newline-framed plaintext for the framing rung
	reps    int               // repetitions behind every rung's median
	reads   int               // positional reads behind every read-path p50
	serves  int               // requests of the ladder's own range trace
	sp      *spans
	root    int
	fails   *failures
	res     *result
	med     map[string]float64 // rung -> median ms, for the self-time table
}

func mbps(n int, millis float64) float64 { return float64(n) / 1e6 / (millis / 1e3) }

// rung times f over l.reps repetitions and returns the median in ms.
func (l *ladder) rung(name string, f func() error) float64 {
	id := l.sp.newOp()
	var ds []float64
	for i := 0; i < l.reps; i++ {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		l.sp.add(name, l.root, id, t0, t1)
		if err != nil {
			l.check(name, err)
			continue
		}
		ds = append(ds, ms(t1.Sub(t0)))
	}
	l.med[name] = median(ds)
	return l.med[name]
}

// check counts one oracle comparison of a rung's output.
func (l *ladder) check(name string, err error) {
	l.res.Attempted++
	if err != nil {
		l.res.Failed++
		l.fails.add(fmt.Errorf("ladder %s: %w", name, err))
	}
}

func (l *ladder) checkBytes(name string, got, want []byte) {
	var err error
	if !bytes.Equal(got, want) {
		err = fmt.Errorf("%d bytes differ from the oracle's %d", len(got), len(want))
	}
	l.check(name, err)
}

// ladderSize is the ladder corpus's plaintext size: at least 2 MiB, so
// that even a scaled-down run has some twenty DEFLATE blocks to sync to.
func ladderSize(scale int) int { return max(ladderBytes/scale, 2<<20) }

// runLadder climbs every rung on the head of the workload's own reads,
// compressed on its own: the whole corpus would make a traced run three
// times as long as an untraced one. The generator is prefix-stable, so
// generating the head again yields the same bytes; that is checked.
func runLadder(cfg config, reads *corpus, sp *spans, fails *failures, res *result) (map[string]float64, error) {
	head := genFASTQ(cfg.seed, ladderSize(cfg.scale))
	if !bytes.HasPrefix(reads.plain, head) {
		return nil, fmt.Errorf("ladder: its corpus is not the head of the workload's %s", reads.name)
	}
	c, err := newCorpus("ladder", head, 6)
	if err != nil {
		return nil, err
	}
	logs := genJSONL(cfg.seed+1, ladderSize(cfg.scale))
	start, end, err := gzipx.PayloadBounds(c.gz)
	if err != nil {
		return nil, err
	}
	// A scaled-down run checks the plumbing, not the numbers: its counts
	// shrink with its corpus.
	l := &ladder{cfg: cfg, c: c,
		reps: max(ladderReps/cfg.scale, 1), reads: max(readCount/cfg.scale, 8), serves: max(serveOps/cfg.scale, 32),
		payload: c.gz[start:end], logs: logs, sp: sp, fails: fails, res: res, med: map[string]float64{}}
	_, l.blocks, err = flate.DecompressRecorded(l.payload, 0, true)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	l.root = sp.add("ladder", 0, 0, t0, t0)
	l.bitio()
	if err := l.huffman(); err != nil {
		return nil, err
	}
	l.flate()
	l.tracked()
	l.blockfind()
	l.core()
	l.pugz()
	if err := l.gzindex(); err != nil {
		return nil, err
	}
	l.file()
	l.framing()
	if err := l.serve(); err != nil {
		return nil, err
	}
	return l.med, nil
}

func (l *ladder) bitio() {
	iters := 0
	t := l.rung("bitio.refill", func() error {
		r := bitio.NewReader(l.payload)
		iters = 0
		for r.Len() >= 64 {
			r.Refill()
			r.Consume(48)
			iters++
		}
		return nil
	})
	l.res.set("bitio.refill_ns", t*1e6/float64(max(iters, 1)))
}

// dynamicLengths lifts the literal/length code lengths out of the
// dynamic block starting at bit.
func dynamicLengths(payload []byte, bit int64) ([]uint8, error) {
	r, err := bitio.NewReaderAt(payload, bit)
	if err != nil {
		return nil, err
	}
	hdr, err := r.Take(17)
	if err != nil {
		return nil, err
	}
	if hdr>>1&3 != uint32(flate.Dynamic) {
		return nil, fmt.Errorf("block at bit %d is not dynamic", bit)
	}
	hlit, hdist, hclen := int(hdr>>3&0x1f)+257, int(hdr>>8&0x1f)+1, int(hdr>>13&0xf)+4
	var cl [19]uint8
	for i := 0; i < hclen; i++ {
		b, err := r.Take(3)
		if err != nil {
			return nil, err
		}
		cl[codeLenOrder[i]] = uint8(b)
	}
	dec, err := huffman.NewDecoder(cl[:], false)
	if err != nil {
		return nil, err
	}
	lens := make([]uint8, hlit+hdist)
	for i := 0; i < len(lens); {
		sym, err := dec.Decode(r)
		if err != nil {
			return nil, err
		}
		rep, val, bits := 1, uint8(sym), uint(0)
		switch sym {
		case 16:
			if i == 0 {
				return nil, fmt.Errorf("repeat with no previous length")
			}
			rep, val, bits = 3, lens[i-1], 2
		case 17:
			rep, val, bits = 3, 0, 3
		case 18:
			rep, val, bits = 11, 0, 7
		}
		extra, err := r.Take(bits)
		if err != nil {
			return nil, err
		}
		for rep += int(extra); rep > 0 && i < len(lens); rep-- {
			lens[i] = val
			i++
		}
	}
	return lens[:hlit], nil
}

func (l *ladder) huffman() error {
	// Two different descriptions, so that alternating between them
	// defeats the decoder's identical-description memo.
	var descs [][]uint8
	for _, b := range l.blocks {
		if b.Event.Type != flate.Dynamic {
			continue
		}
		lit, err := dynamicLengths(l.payload, b.Event.StartBit)
		if err != nil {
			return fmt.Errorf("ladder: lifting code lengths: %w", err)
		}
		if len(descs) == 0 || !bytes.Equal(lit, descs[0]) {
			descs = append(descs, lit)
		}
		if len(descs) == 2 {
			break
		}
	}
	if len(descs) < 2 {
		return fmt.Errorf("ladder: corpus has fewer than two distinct dynamic blocks")
	}
	const inits = 500
	var d huffman.Decoder
	t := l.rung("huffman.init_cold", func() error {
		for i := 0; i < inits; i++ {
			if err := d.Init(descs[i&1], false); err != nil {
				return err
			}
		}
		return nil
	})
	l.res.set("huffman.init_cold_us", t*1e3/inits)
	t = l.rung("huffman.init_memo", func() error {
		for i := 0; i < inits; i++ {
			if err := d.Init(descs[1], false); err != nil {
				return err
			}
		}
		return nil
	})
	l.res.set("huffman.init_memo_us", t*1e3/inits)
	var f huffman.LitLenFast
	t = l.rung("huffman.fast_init", func() error {
		for i := 0; i < inits; i++ {
			if err := f.Init(descs[i&1], lengthBase, lengthExtra); err != nil {
				return err
			}
		}
		return nil
	})
	l.res.set("huffman.fast_init_us", t*1e3/inits)
	return nil
}

func (l *ladder) flate() {
	var out []byte
	fast := l.rung("flate.exact", func() (err error) {
		out, err = flate.DecompressAll(l.payload, 0)
		return err
	})
	l.checkBytes("flate.exact", out, l.c.plain)
	l.res.set("flate.exact_mbps", mbps(len(l.c.plain), fast))

	slow := l.rung("flate.exact_nofast", func() error {
		d := flate.NewDecoder(flate.Options{NoFast: true})
		d.SetTrackStart(true)
		sink := &flate.ByteSink{Out: make([]byte, 0, len(l.c.plain))}
		err := d.DecodeStream(bitio.NewReader(l.payload), sink)
		out = sink.Output()
		return err
	})
	l.checkBytes("flate.exact_nofast", out, l.c.plain)
	l.res.set("flate.exact_nofast_mbps", mbps(len(l.c.plain), slow))
	l.res.set("flate.fast_share", 1-fast/slow)

	var n int64
	t := l.rung("flate.tail", func() error {
		d := flate.NewDecoder(flate.Options{})
		d.SetTrackStart(true)
		sink := flate.NewTailSink(nil)
		defer sink.Release()
		err := d.DecodeStream(bitio.NewReader(l.payload), sink)
		n = sink.Len()
		return err
	})
	l.check("flate.tail", lenErr(n, len(l.c.plain)))
	l.res.set("flate.tail_mbps", mbps(len(l.c.plain), t))
}

func lenErr(got int64, want int) error {
	if got != int64(want) {
		return fmt.Errorf("%d bytes, oracle has %d", got, want)
	}
	return nil
}

// midBlock is the first block boundary with a full window of output
// before it: where a chunk of the parallel decode would start.
func (l *ladder) midBlock() flate.BlockSpan {
	for _, b := range l.blocks {
		if b.OutStart >= 2*flate.WindowSize {
			return b
		}
	}
	return l.blocks[len(l.blocks)-1]
}

func (l *ladder) tracked() {
	mid := l.midBlock()
	want := l.c.plain[mid.OutStart:]
	var res *tracked.Result
	t := l.rung("tracked.pass1", func() (err error) {
		if res != nil {
			res.Release()
		}
		res, err = tracked.DecodeFrom(l.payload, mid.Event.StartBit, tracked.DecodeOptions{SizeHint: len(want)})
		return err
	})
	if res == nil {
		return
	}
	defer res.Release()
	l.res.set("tracked.pass1_mbps", mbps(len(want), t))
	l.res.set("tracked.unresolved_share", float64(tracked.CountUndetermined(res.Out))/float64(max(len(res.Out), 1)))

	ctx := l.c.plain[mid.OutStart-flate.WindowSize : mid.OutStart]
	dst := make([]byte, len(res.Out))
	t = l.rung("tracked.resolve", func() (err error) {
		dst, err = tracked.Resolve(res.Out, ctx, dst)
		return err
	})
	l.checkBytes("tracked.resolve", dst, want)
	l.res.set("tracked.resolve_mbps", mbps(len(want), t))

	var n int64
	t = l.rung("tracked.tail", func() error {
		r, err := tracked.DecodeTailFrom(l.payload, mid.Event.StartBit, tracked.DecodeOptions{})
		if err != nil {
			return err
		}
		n = r.OutLen
		r.Release()
		return nil
	})
	l.check("tracked.tail", lenErr(n, len(want)))
	l.res.set("tracked.tail_mbps", mbps(len(want), t))
}

func (l *ladder) blockfind() {
	const syncs = 32
	rng := rand.New(rand.NewSource(l.cfg.seed))
	starts := map[int64]bool{}
	for _, b := range l.blocks {
		starts[b.Event.StartBit] = true
	}
	// Seeded byte offsets with at least eight blocks after them: a sync
	// is confirmed by decoding five more blocks, and the final block is
	// never a valid target.
	limit := l.blocks[max(len(l.blocks)-8, 0)].Event.StartBit / 8
	var from []int64
	for i := 0; i < syncs; i++ {
		from = append(from, rng.Int63n(limit+1)*8)
	}
	f := blockfind.New()
	var found []int64
	t := l.rung("blockfind.sync", func() error {
		found = found[:0]
		for _, bit := range from {
			at, err := f.Next(l.payload, bit)
			if err != nil {
				return err
			}
			found = append(found, at)
		}
		return nil
	})
	var err error
	for i, at := range found {
		if !starts[at] {
			err = fmt.Errorf("sync from bit %d landed on bit %d, not a block start", from[i], at)
		}
	}
	l.check("blockfind.sync", err)
	st := f.Stats
	l.res.set("blockfind.sync_ms", t/syncs)
	l.res.set("blockfind.bits_per_sync", float64(st.BitsTried)/float64(l.reps*syncs))
	l.res.set("blockfind.reject_share", float64(st.Rejects)/float64(max(st.BitsTried, 1)))
}

func (l *ladder) core() {
	var out []byte
	t := l.rung("core.payload_t1", func() (err error) {
		out, _, err = core.DecompressPayload(l.payload, core.Options{Threads: 1})
		return err
	})
	l.checkBytes("core.payload_t1", out, l.c.plain)
	l.res.set("core.payload_t1_mbps", mbps(len(l.c.plain), t))

	var sync, p1, p2s, p2p []float64
	t = l.rung("core.payload_tn", func() error {
		var m *core.Metrics
		var err error
		out, m, err = core.DecompressPayload(l.payload, core.Options{Threads: l.cfg.threads})
		if err != nil {
			return err
		}
		tot := float64(m.TotalWall)
		sync = append(sync, float64(m.SyncWall)/tot)
		p1 = append(p1, float64(m.Pass1Wall)/tot)
		p2s = append(p2s, float64(m.Pass2SeqWall)/tot)
		p2p = append(p2p, float64(m.Pass2ParWall)/tot)
		return nil
	})
	l.checkBytes("core.payload_tn", out, l.c.plain)
	l.res.set("core.payload_tn_mbps", mbps(len(l.c.plain), t))
	l.res.set("core.sync_share", median(sync))
	l.res.set("core.pass1_share", median(p1))
	l.res.set("core.pass2seq_share", median(p2s))
	l.res.set("core.pass2par_share", median(p2p))

	var w crcCounter
	t = l.rung("core.pipeline", func() error {
		w = crcCounter{}
		p := core.NewPipeline(bytes.NewReader(l.payload), core.PipelineOptions{Threads: l.cfg.threads})
		defer p.Close()
		_, err := p.RunMember(func(b []byte) error {
			_, err := w.Write(b)
			return err
		})
		return err
	})
	l.check("core.pipeline", l.c.checkStream(w.n, w.crc))
	l.res.set("core.pipeline_mbps", mbps(len(l.c.plain), t))

	var skipped int64
	t = l.rung("core.pipeline_skip", func() error {
		p := core.NewPipeline(bytes.NewReader(l.payload), core.PipelineOptions{Threads: l.cfg.threads})
		defer p.Close()
		r, err := p.RunMemberOpts(core.MemberRun{Emit: func([]byte) error { return nil }, SkipTo: math.MaxInt64})
		skipped = r.Out
		return err
	})
	l.check("core.pipeline_skip", lenErr(skipped, len(l.c.plain)))
	l.res.set("core.pipeline_skip_mbps", mbps(len(l.c.plain), t))
}

func (l *ladder) pugz() {
	var out []byte
	decompress := func(name string, o pugz.Options) float64 {
		t := l.rung(name, func() (err error) {
			out, _, err = pugz.Decompress(l.c.gz, o)
			return err
		})
		l.checkBytes(name, out, l.c.plain)
		return t
	}
	var w crcCounter
	buf := make([]byte, copyBufSize)
	reader := func(name string, threads int) float64 {
		t := l.rung(name, func() error {
			w = crcCounter{}
			r, err := pugz.NewReader(bytes.NewReader(l.c.gz), pugz.StreamOptions{Threads: threads})
			if err != nil {
				return err
			}
			defer r.Close()
			return w.drain(r, buf)
		})
		l.check(name, l.c.checkStream(w.n, w.crc))
		return t
	}
	n := len(l.c.plain)
	d1 := decompress("pugz.decompress_t1", pugz.Options{Threads: 1})
	l.res.set("pugz.decompress_t1_mbps", mbps(n, d1))
	l.res.set("pugz.decompress_tn_mbps", mbps(n, decompress("pugz.decompress_tn", pugz.Options{Threads: l.cfg.threads})))
	r1 := reader("pugz.reader_t1", 1)
	rn := reader("pugz.reader_tn", l.cfg.threads)
	l.res.set("pugz.reader_t1_mbps", mbps(n, r1))
	l.res.set("pugz.reader_tn_mbps", mbps(n, rn))
	l.res.set("pugz.speedup_tn_vs_t1", r1/rn) // base: reader_t1

	verify := decompress("gzipx.verify", pugz.Options{Threads: 1, VerifyChecksums: true})
	l.res.set("gzipx.verify_share", verify/d1-1)

	// The standard library's gunzip: the paper's sequential baseline.
	t := l.rung("ref.gunzip", func() error {
		w = crcCounter{}
		zr, err := gzip.NewReader(bytes.NewReader(l.c.gz))
		if err != nil {
			return err
		}
		return w.drain(zr, buf)
	})
	l.check("ref.gunzip", l.c.checkStream(w.n, w.crc))
	l.res.set("ref.gunzip_mbps", mbps(n, t))
	l.res.set("pugz.speedup_vs_gunzip", t/rn) // base: ref.gunzip
}

// readOffsets are seeded positions of l.reads positional reads.
func (l *ladder) readOffsets() []int64 {
	rng := rand.New(rand.NewSource(l.cfg.seed + 7))
	offs := make([]int64, l.reads)
	for i := range offs {
		offs[i] = rng.Int63n(int64(len(l.c.plain) - readSize))
	}
	return offs
}

// readP50 times one positional read per offset and returns the median
// in microseconds; every read is checked against the oracle.
func (l *ladder) readP50(name string, offs []int64, read func(p []byte, off int64) (int, error)) float64 {
	id := l.sp.newOp()
	p := make([]byte, readSize)
	var ds []float64
	var err error
	for _, off := range offs {
		t0 := time.Now()
		n, rerr := read(p, off)
		t1 := time.Now()
		l.sp.add(name, l.root, id, t0, t1)
		ds = append(ds, ms(t1.Sub(t0))*1e3)
		if rerr != nil && rerr != io.EOF {
			err = rerr
		} else if !bytes.Equal(p[:n], l.c.plain[off:off+readSize]) {
			err = fmt.Errorf("read at %d differs from the oracle", off)
		}
	}
	l.check(name, err)
	m := median(ds)
	l.med[name] = m / 1e3
	return m
}

func (l *ladder) gzindex() error {
	var ix *gzindex.Index
	t := l.rung("gzindex.build_seq", func() (err error) {
		ix, err = gzindex.Build(l.payload, indexSpace)
		return err
	})
	if ix == nil {
		return fmt.Errorf("ladder: gzindex.Build failed")
	}
	l.check("gzindex.build_seq", lenErr(ix.OutSize, len(l.c.plain)))
	l.res.set("gzindex.build_seq_mbps", mbps(len(l.c.plain), t))

	var blob []byte
	l.res.set("gzindex.marshal_ms", l.rung("gzindex.marshal", func() (err error) {
		blob, err = ix.Marshal()
		return err
	}))
	l.res.set("gzindex.bytes_per_checkpoint", float64(len(blob))/float64(max(len(ix.Checkpoints), 1)))
	var back *gzindex.Index
	l.res.set("gzindex.unmarshal_ms", l.rung("gzindex.unmarshal", func() (err error) {
		back, err = gzindex.Unmarshal(blob)
		return err
	}))
	if back == nil {
		return fmt.Errorf("ladder: gzindex.Unmarshal failed")
	}
	l.res.set("gzindex.readat_p50_us", l.readP50("gzindex.readat", l.readOffsets(), func(p []byte, off int64) (int, error) {
		return back.ReadAt(l.payload, p, off)
	}))
	return nil
}

func (l *ladder) file() {
	opts := pugz.FileOptions{Threads: l.cfg.threads}
	open := func() *pugz.File {
		f, err := pugz.NewFileBytes(l.c.gz, opts)
		if err != nil {
			panic(err) // the header was parsed by every rung below this one
		}
		return f
	}

	var ix *pugz.Index
	l.res.set("file.build_index_ms", l.rung("file.build_index", func() (err error) {
		ix, err = open().BuildIndex(indexSpace)
		return err
	}))
	var size int64
	l.res.set("file.size_ms", l.rung("file.size", func() (err error) {
		size, err = open().Size()
		return err
	}))
	l.check("file.size", lenErr(size, len(l.c.plain)))

	// One deep read on a fresh, unindexed File: the parallel skip.
	deep := int64(len(l.c.plain)) * 9 / 10
	p := make([]byte, readSize)
	l.res.set("file.readat_cold_ms", l.rung("file.readat_cold", func() error {
		_, err := open().ReadAt(p, deep)
		return err
	}))
	l.checkBytes("file.readat_cold", p, l.c.plain[deep:deep+readSize])

	f := open()
	f.AttachIndex(ix)
	offs := l.readOffsets()
	l.res.set("file.readat_indexed_p50_us", l.readP50("file.readat_indexed", offs, f.ReadAt))
	l.res.set("file.inflated_per_read", float64(f.InflatedBytes())/float64(len(offs)*readSize))

	// Ascending reads on an unindexed File ride one pooled cursor.
	asc := make([]int64, 0, l.reads)
	for off := int64(0); len(asc) < l.reads && off+readSize <= int64(len(l.c.plain)); off += 2 * readSize {
		asc = append(asc, off)
	}
	l.res.set("file.readat_cursor_p50_us", l.readP50("file.readat_cursor", asc, open().ReadAt))
}

func (l *ladder) framing() {
	recs := 0
	t := l.rung("framing.fastq", func() error {
		recs = len(framing.FASTQ{}.Records(l.c.plain, true, true))
		return nil
	})
	l.check("framing.fastq", nonZero(recs))
	l.res.set("framing.fastq_mbps", mbps(len(l.c.plain), t))
	t = l.rung("framing.newline", func() error {
		recs = len(framing.Newline{}.Records(l.logs, true, true))
		return nil
	})
	l.check("framing.newline", lenErr(int64(recs), bytes.Count(l.logs, []byte{'\n'})))
	l.res.set("framing.newline_mbps", mbps(len(l.logs), t))

	t = l.rung("records.scan", func() error {
		f, err := pugz.NewFileBytes(l.c.gz, pugz.FileOptions{Threads: l.cfg.threads})
		if err != nil {
			return err
		}
		sc, err := f.Records(0, pugz.RecordOptions{Framer: pugz.FASTQFraming{}})
		if err != nil {
			return err
		}
		for recs = 0; sc.Next(); recs++ {
		}
		return sc.Err()
	})
	l.check("records.scan", nonZero(recs))
	l.res.set("records.scan_mbps", mbps(len(l.c.plain), t))
}

func nonZero(n int) error {
	if n == 0 {
		return fmt.Errorf("no records")
	}
	return nil
}

// serve stands the ladder's corpus up behind its own server and times
// the same indexed reads through the handler alone, then over loopback
// (the difference is net/http and the socket), then one client's range
// trace by class.
func (l *ladder) serve() error {
	s, err := startServed(l.cfg.tmpRoot(), []*corpus{l.c}, l.cfg.threads, 1)
	if err != nil {
		return err
	}
	defer s.stop()
	h := s.srv.Handler()
	offs := l.readOffsets()
	l.res.set("serve.handler_p50_us", l.readP50("serve.handler", offs, func(p []byte, off int64) (int, error) {
		req := httptest.NewRequest(http.MethodGet, "/blobs/ladder.gz", nil)
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+int64(len(p))-1))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusPartialContent {
			return 0, fmt.Errorf("status %d", rec.Code)
		}
		return copy(p, rec.Body.Bytes()), nil
	}))
	var ds []float64
	for _, off := range offs {
		o := s.get(0, rangeReq{off: off, n: readSize}, l.sp) // checks the body itself
		l.check("serve.http", o.err)
		ds = append(ds, ms(o.dur))
	}
	l.med["serve.http"] = median(ds)
	l.res.set("serve.http_p50_us", median(ds)*1e3)

	tr := newRangeTrace(l.cfg.seed, 0, 1, s.sizes())
	var byClass [numClasses][]float64
	for i := 0; i < l.serves; i++ {
		q := tr.next()
		o := s.get(0, q, l.sp)
		l.check("serve."+classNames[q.class], o.err)
		if o.err == nil {
			byClass[q.class] = append(byClass[q.class], ms(o.dur))
		}
	}
	for c, name := range classNames {
		l.med["serve."+name] = median(byClass[c])
		l.res.set("serve."+name+"_p50_ms", median(byClass[c]))
	}
	m := s.srv.Metrics().Snapshot()
	l.res.set("serve.cache_hits", float64(m["cache_hits"]))
	l.res.set("serve.cache_misses", float64(m["cache_misses"]))
	l.res.set("serve.evictions", float64(m["cache_evictions"]))
	l.res.set("serve.index_builds", float64(m["index_builds"]))
	return nil
}

// selfTimes attributes each rung's median to itself and the rungs it is
// built on: self = total - sum(children).
func selfTimes(med map[string]float64) []selfTime {
	built := []struct {
		rung     string
		children []string
	}{
		{"pugz.decompress_t1", []string{"core.payload_t1"}}, // self: gzip framing + the output copy
		{"core.payload_t1", []string{"flate.exact"}},        // self: planning and buffers around one exact decode
		{"flate.exact_nofast", []string{"flate.exact"}},     // self: what the fast loop saves
		{"gzipx.verify", []string{"pugz.decompress_t1"}},    // self: CRC-32 + ISIZE
		{"pugz.decompress_tn", []string{"core.payload_tn"}},
		{"pugz.reader_tn", []string{"core.pipeline"}}, // self: gzip framing + the Read hand-off
		{"file.build_index", []string{"core.pipeline_skip"}},
		{"file.size", []string{"core.pipeline_skip"}},
		{"file.readat_indexed", []string{"gzindex.readat"}},
		{"serve.handler", []string{"file.readat_indexed"}},
		{"serve.http", []string{"serve.handler"}}, // self: net/http + the socket
		{"records.scan", []string{"pugz.reader_tn", "framing.fastq"}},
	}
	var out []selfTime
	for _, b := range built {
		st := selfTime{Rung: b.rung, TotalMs: med[b.rung], Children: b.children, SelfMs: med[b.rung]}
		for _, c := range b.children {
			st.SelfMs -= med[c]
		}
		out = append(out, st)
	}
	return out
}

// runTraced is a traced run: the same five rounds of pinned ops as an
// untraced one, each op recording its spans or not by a seeded coin flip
// (so both kinds meet the same box and the same heap; the ratio of their
// medians is the tracing overhead), then the ladder; spans and counts go
// to out/trace-<workload>.json.
func runTraced(cfg config, w *workload, fx *fixture, env map[string]string, fails *failures, res *result) error {
	sp := newSpans(cfg.seed)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var plain, traced []float64
	var delivered int64
	for i := 0; i < rounds; i++ {
		r := runOps(fx, w.roundOps(cfg.seconds), sp, fails)
		res.count(r)
		delivered += r.bytes
		plain = append(plain, r.plain...)
		traced = append(traced, r.traced...)
	}
	runtime.ReadMemStats(&ms1)
	if len(traced) == 0 || len(plain) == 0 {
		return fmt.Errorf("traced run: %d ops recorded spans and %d did not; too short to compare them", len(traced), len(plain))
	}
	fmt.Printf("timed phase: %d ops recorded spans (p50 %.3f ms), %d did not (p50 %.3f ms)\n",
		len(traced), median(traced), len(plain), median(plain))
	res.set("trace.overhead_share", median(traced)/median(plain)-1)
	res.set("proc.alloc_per_out", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(max(delivered, 1)))
	res.set("proc.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	res.set("proc.peak_rss_mb", peakRSSMB())

	med, err := runLadder(cfg, fx.corpora[0], sp, fails, res)
	if err != nil {
		return err
	}
	counts := map[string]float64{}
	for name, m := range res.Metrics {
		counts[name] = m.Value
	}
	path, err := sp.write(cfg.tmpRoot(), w.name, env, counts, selfTimes(med))
	if err != nil {
		return err
	}
	fmt.Println("trace written to", path)
	return nil
}
