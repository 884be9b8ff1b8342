package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	pugz "repro"
	"repro/internal/serve"
)

// Range classes of the serve_ranges trace.
const (
	classHot     = iota // zipf-popular 4 KiB pages: work shared between requests
	classUniform        // uniform offsets: nothing shared, the cache-bypassing control
	classScan           // 1 MiB steps of a per-client sequential scan
	numClasses
)

var classNames = [numClasses]string{"hot", "uniform", "scan"}

const (
	pageSize = 4 << 10
	scanStep = 1 << 20
	// pageStride spreads zipf ranks over the page space: a prime larger
	// than any page count, so rank -> rank*stride mod pages is one-to-one.
	pageStride = 2654435761
)

// rangeReq is one request of the trace: bytes [off, off+n) of blob.
type rangeReq struct {
	blob   int
	off, n int64
	class  int
}

// rangeTrace is one client's seeded request stream over a set of
// blobs. Classes follow a fixed 16-op cycle — 13 ranges of 4-64 KiB
// (log-uniform) starting at zipf(1.1)-popular pages, 2 uniform-random
// ranges of the same sizes, 1 step of 1 MiB in a sequential scan of the
// first blob — so the byte mix of a round does not depend on how many
// scan steps a random draw happened to put in it. Scan steps are 1/16 of
// the ops, which puts the p95 inside their distribution, not on the
// edge between them and the short ranges.
type rangeTrace struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	sizes   []int64
	pages   []int64 // pages per blob
	total   int64   // pages in all blobs
	scanPos int64
	n       int // requests issued
}

func newRangeTrace(seed int64, client, clients int, sizes []int64) *rangeTrace {
	t := &rangeTrace{rng: rand.New(rand.NewSource(seed*1000 + int64(client))), sizes: sizes}
	for _, s := range sizes {
		p := (s + pageSize - 1) / pageSize
		t.pages = append(t.pages, p)
		t.total += p
	}
	t.zipf = rand.NewZipf(t.rng, 1.1, 1, uint64(t.total-1))
	t.scanPos = sizes[0] / int64(clients) * int64(client) / scanStep * scanStep
	t.n = 16 / clients * client // clients run the cycle out of phase
	return t
}

// locate maps a page of the combined page space to its blob and the
// page's index within it.
func (t *rangeTrace) locate(page int64) (int, int64) {
	blob := 0
	for page >= t.pages[blob] {
		page -= t.pages[blob]
		blob++
	}
	return blob, page
}

func (t *rangeTrace) next() rangeReq {
	n := int64(pageSize * math.Pow(16, t.rng.Float64()))
	slot := t.n % 16
	t.n++
	switch slot {
	case 15:
		if t.scanPos >= t.sizes[0] {
			t.scanPos = 0
		}
		off := t.scanPos
		t.scanPos += scanStep
		return rangeReq{0, off, min(scanStep, t.sizes[0]-off), classScan}
	case 4, 10:
		blob, _ := t.locate(t.rng.Int63n(t.total))
		n = min(n, t.sizes[blob])
		return rangeReq{blob, t.rng.Int63n(t.sizes[blob] - n + 1), n, classUniform}
	default:
		blob, page := t.locate(int64(t.zipf.Uint64() * pageStride % uint64(t.total)))
		off := page * pageSize
		return rangeReq{blob, off, min(n, t.sizes[blob]-off), classHot}
	}
}

// served is an in-process serve.Server on a loopback listener over a
// directory of blobs, each with its .gzx sidecar already on disk, so
// every read is an indexed read and no background build runs.
type served struct {
	dir     string
	corpora []*corpus
	srv     *serve.Server
	hs      *http.Server
	done    chan struct{}
	base    string
	clients []*http.Client
	bodies  [][]byte // one per client: a scan step plus a spare byte
}

func startServed(tmpRoot string, corpora []*corpus, threads, clients int) (*served, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "blobs-")
	if err != nil {
		return nil, err
	}
	s := &served{dir: dir, corpora: corpora, done: make(chan struct{})}
	for _, c := range corpora {
		ix, err := pugz.NewIndexFromReader(bytes.NewReader(c.gz), indexSpace, pugz.StreamOptions{Threads: threads})
		if err != nil {
			return nil, s.fail(err)
		}
		blob, err := ix.Marshal()
		if err != nil {
			return nil, s.fail(err)
		}
		path := filepath.Join(dir, c.name+".gz")
		if err := os.WriteFile(path, c.gz, 0o644); err != nil {
			return nil, s.fail(err)
		}
		if err := os.WriteFile(path+".gzx", blob, 0o644); err != nil {
			return nil, s.fail(err)
		}
	}
	cat, err := serve.ScanDir(dir)
	if err != nil {
		return nil, s.fail(err)
	}
	s.srv, err = serve.New(serve.Options{Catalog: cat, File: pugz.FileOptions{Threads: threads}})
	if err != nil {
		return nil, s.fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, s.fail(err)
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns ErrServerClosed once stop closes hs
	}()
	for i := 0; i < clients; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
		s.bodies = append(s.bodies, make([]byte, scanStep+1))
	}
	return s, nil
}

func (s *served) fail(err error) error {
	os.RemoveAll(s.dir)
	return err
}

// stop closes the clients' connections and the listener, waits for the
// accept loop to end, releases the cached handles and deletes the blobs.
func (s *served) stop() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.hs.Close()
	<-s.done
	s.srv.Close()
	os.RemoveAll(s.dir)
}

// get issues one range request on a client's keep-alive connection and
// checks status, Content-Range and every body byte against the oracle.
func (s *served) get(client int, q rangeReq, sp *spans) opResult {
	c := s.corpora[q.blob]
	req, err := http.NewRequest(http.MethodGet, s.base+"/blobs/"+c.name+".gz", nil)
	if err != nil {
		return opResult{err: err}
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", q.off, q.off+q.n-1))
	id := sp.newOp()
	t0 := time.Now()
	resp, err := s.clients[client].Do(req)
	t1 := time.Now()
	if err != nil {
		return opResult{dur: t1.Sub(t0), err: err}
	}
	body := s.bodies[client][:q.n+1] // one spare byte, so an over-long body shows
	n, err := resp.Body.Read(body)
	first := time.Now()
	for err == nil && n < len(body) {
		var m int
		m, err = resp.Body.Read(body[n:])
		n += m
	}
	resp.Body.Close()
	t2 := time.Now()
	wantCR := fmt.Sprintf("bytes %d-%d/%d", q.off, q.off+q.n-1, len(c.plain))
	switch {
	case err == nil:
		err = fmt.Errorf("%s %s: body longer than the range", c.name, wantCR)
	case err != io.EOF:
		err = fmt.Errorf("%s %s: body: %v", c.name, wantCR, err)
	case resp.StatusCode != http.StatusPartialContent:
		err = fmt.Errorf("%s %s: status %d", c.name, wantCR, resp.StatusCode)
	case resp.Header.Get("Content-Range") != wantCR:
		err = fmt.Errorf("%s: Content-Range %q, want %q", c.name, resp.Header.Get("Content-Range"), wantCR)
	case !bytes.Equal(body[:n], c.plain[q.off:q.off+q.n]):
		err = fmt.Errorf("%s %s: body differs from oracle (%d bytes)", c.name, wantCR, n)
	default:
		err = nil
	}
	root := sp.add("op."+classNames[q.class], 0, id, t0, t2)
	sp.add("http.headers", root, id, t0, t1)
	sp.add("http.first_body_byte", root, id, t1, first)
	sp.add("http.body", root, id, first, t2)
	return opResult{n: int64(n), dur: t2.Sub(t0), first: first.Sub(t0), err: err}
}

func (s *served) sizes() []int64 {
	var out []int64
	for _, c := range s.corpora {
		out = append(out, int64(len(c.plain)))
	}
	return out
}

func setupServeRanges(cfg config) (*fixture, error) {
	reads, err := makeReads(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	logs, err := makeLogs(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	s, err := startServed(cfg.tmpRoot(), []*corpus{reads, logs}, cfg.threads, cfg.threads)
	if err != nil {
		return nil, err
	}
	traces := make([]*rangeTrace, cfg.threads)
	for i := range traces {
		traces[i] = newRangeTrace(cfg.seed, i, cfg.threads, s.sizes())
	}
	return &fixture{
		clients: cfg.threads,
		op: func(client int, sp *spans) opResult {
			return s.get(client, traces[client].next(), sp)
		},
		amplification: func() (int64, int64) {
			m := s.srv.Metrics().Snapshot()
			return m["bytes_inflated"], m["bytes_served"]
		},
		corpora: s.corpora,
		close:   s.stop,
	}, nil
}
