package serve

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	pugz "repro"
	"repro/baseline"
	"repro/internal/fastq"
)

// fixture is a blob directory on disk plus the stdlib-gzip oracle of
// every blob's decompressed content — the differential reference the
// HTTP layer is tested against.
type fixture struct {
	dir    string
	cat    *Catalog
	oracle map[string][]byte
}

func mustCompress(t testing.TB, data []byte, level int) []byte {
	t.Helper()
	gz, err := baseline.Compress(data, level)
	if err != nil {
		t.Fatal(err)
	}
	return gz
}

// newFixture lays out the serving corpus: levels 0/6/9, a nested path,
// a multi-member blob, an empty member, and one sidecar index.
func newFixture(t testing.TB, reads int) *fixture {
	t.Helper()
	return buildFixture(t, t.TempDir(), reads)
}

func buildFixture(t testing.TB, dir string, reads int) *fixture {
	t.Helper()
	fx := &fixture{dir: dir, oracle: map[string][]byte{}}

	write := func(name string, gz []byte) {
		t.Helper()
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, gz, 0o644); err != nil {
			t.Fatal(err)
		}
		// The oracle is stdlib gzip, multi-member included.
		zr, err := gzip.NewReader(bytes.NewReader(gz))
		if err != nil {
			t.Fatal(err)
		}
		plain, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		fx.oracle[name] = plain
	}

	a := fastq.Generate(fastq.GenOptions{Reads: reads, Seed: 11})
	b := fastq.Generate(fastq.GenOptions{Reads: reads, Seed: 12})
	c := fastq.Generate(fastq.GenOptions{Reads: reads, Seed: 13})

	gzA := mustCompress(t, a, 6)
	write("a.gz", gzA)
	write("sub/stored.gz", mustCompress(t, b, 0))
	write("dense.gz", mustCompress(t, c, 9))
	write("multi.gz", append(append([]byte{}, mustCompress(t, a, 6)...), mustCompress(t, b, 6)...))
	write("empty.gz", mustCompress(t, nil, 6))

	// a.gz gets a sidecar checkpoint index, exercising the load path.
	ix, err := pugz.BuildIndex(gzA, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ix.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.gz"+indexSuffix), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	cat, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fx.cat = cat
	return fx
}

func newTestServer(t testing.TB, fx *fixture, o Options) (*Server, *httptest.Server) {
	t.Helper()
	o.Catalog = fx.cat
	if o.File.Threads == 0 {
		o.File = pugz.FileOptions{Threads: 2, MinChunk: 16 << 10}
	}
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		waitForIndexBuilds(t, s)
		s.Close()
	})
	return s, ts
}

// waitForIndexBuilds blocks until every kicked background index build
// has settled, so test teardown never races a builder goroutine.
func waitForIndexBuilds(t testing.TB, s *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		m := s.Metrics().Snapshot()
		if m["index_builds"] == m["index_builds_done"]+m["index_build_errors"] {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("index builds never settled: %d kicked, %d done, %d failed",
				m["index_builds"], m["index_builds_done"], m["index_build_errors"])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func get(t testing.TB, client *http.Client, url, rangeHdr string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rangeHdr != "" {
		req.Header.Set("Range", rangeHdr)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestServeRangeDifferential is the subsystem's acceptance property:
// every Range response body over every blob shape (levels 0/6/9,
// multi-member, nested path, empty member) is byte-identical to the
// same slice of the stdlib-gzip-decompressed oracle, with the RFC 7233
// status/header mapping.
func TestServeRangeDifferential(t *testing.T) {
	fx := newFixture(t, 3000)
	_, ts := newTestServer(t, fx, Options{})
	client := ts.Client()

	for name, want := range fx.oracle {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			url := ts.URL + "/blobs/" + name
			size := int64(len(want))

			// Full GET.
			resp, body := get(t, client, url, "")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET: status %d", resp.StatusCode)
			}
			if resp.Header.Get("Accept-Ranges") != "bytes" {
				t.Fatal("missing Accept-Ranges: bytes")
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("full body mismatch: %d vs %d bytes", len(body), len(want))
			}

			// HEAD: size without a body.
			hresp, err := client.Head(url)
			if err != nil {
				t.Fatal(err)
			}
			hresp.Body.Close()
			if hresp.StatusCode != http.StatusOK || hresp.ContentLength != size {
				t.Fatalf("HEAD: status %d length %d, want 200 %d", hresp.StatusCode, hresp.ContentLength, size)
			}

			if size == 0 {
				// Every range against an empty blob is unsatisfiable.
				resp, _ := get(t, client, url, "bytes=0-")
				if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
					t.Fatalf("range on empty blob: status %d, want 416", resp.StatusCode)
				}
				if cr := resp.Header.Get("Content-Range"); cr != "bytes */0" {
					t.Fatalf("Content-Range = %q, want bytes */0", cr)
				}
				return
			}

			// Satisfiable single ranges, incl. both edges, a suffix
			// larger than the blob, and cross-everything spans.
			type spec struct {
				hdr        string
				start, end int64 // inclusive, oracle coordinates
			}
			mid := size / 2
			specs := []spec{
				{"bytes=0-0", 0, 0},
				{"bytes=0-99", 0, min64(99, size-1)},
				{fmt.Sprintf("bytes=%d-%d", mid, min64(mid+4095, size-1)), mid, min64(mid+4095, size-1)},
				{fmt.Sprintf("bytes=%d-", size-100), size - 100, size - 1},
				{fmt.Sprintf("bytes=%d-%d", size-1, size-1), size - 1, size - 1},
				{"bytes=-100", size - 100, size - 1},
				{fmt.Sprintf("bytes=-%d", size+10), 0, size - 1}, // suffix > size: whole blob
				{fmt.Sprintf("bytes=%d-%d", mid, size+50), mid, size - 1},
			}
			for _, sp := range specs {
				resp, body := get(t, client, url, sp.hdr)
				if resp.StatusCode != http.StatusPartialContent {
					t.Fatalf("%q: status %d, want 206", sp.hdr, resp.StatusCode)
				}
				wantCR := fmt.Sprintf("bytes %d-%d/%d", sp.start, sp.end, size)
				if cr := resp.Header.Get("Content-Range"); cr != wantCR {
					t.Fatalf("%q: Content-Range = %q, want %q", sp.hdr, cr, wantCR)
				}
				if !bytes.Equal(body, want[sp.start:sp.end+1]) {
					t.Fatalf("%q: body mismatch (%d bytes)", sp.hdr, len(body))
				}
			}

			// Unsatisfiable: starts exactly at EOF and beyond.
			for _, hdr := range []string{
				fmt.Sprintf("bytes=%d-", size),
				fmt.Sprintf("bytes=%d-%d", size+5, size+10),
				"bytes=-0",
			} {
				resp, _ := get(t, client, url, hdr)
				if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
					t.Fatalf("%q: status %d, want 416", hdr, resp.StatusCode)
				}
				if cr := resp.Header.Get("Content-Range"); cr != fmt.Sprintf("bytes */%d", size) {
					t.Fatalf("%q: Content-Range = %q", hdr, cr)
				}
			}

			// Ignorable Range headers degrade to the full body.
			for _, hdr := range []string{"bytes=0-1,5-6", "items=0-5", "bytes=9-5"} {
				resp, body := get(t, client, url, hdr)
				if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
					t.Fatalf("%q: status %d, body %d bytes; want full 200", hdr, resp.StatusCode, len(body))
				}
			}
		})
	}

	// Unknown blob and path traversal shapes: 404, never a file read.
	for _, name := range []string{"nope.gz", "../a.gz", "sub/../../a.gz"} {
		resp, _ := get(t, client, ts.URL+"/blobs/"+name, "")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %q: status %d, want 404", name, resp.StatusCode)
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// TestServeSingleflightIndexBuild: N concurrent cold requests against
// one blob trigger exactly one handle open and exactly one background
// index build, while every request is served correctly in the
// meantime through the unindexed deep-seek path.
func TestServeSingleflightIndexBuild(t *testing.T) {
	fx := newFixture(t, 3000)
	s, ts := newTestServer(t, fx, Options{IndexSpacing: 128 << 10})
	client := ts.Client()

	const name = "dense.gz" // no sidecar: the build must be kicked
	want := fx.oracle[name]
	size := int64(len(want))

	const N = 12
	var wg sync.WaitGroup
	errs := make(chan error, N)
	for i := 0; i < N; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Deep offsets: cold requests exercise unindexed deep seeks.
			start := size/2 + int64(i)*257
			hdr := fmt.Sprintf("bytes=%d-%d", start, start+1023)
			resp, body := get(t, client, ts.URL+"/blobs/"+name, hdr)
			if resp.StatusCode != http.StatusPartialContent {
				errs <- fmt.Errorf("worker %d: status %d", i, resp.StatusCode)
				return
			}
			if !bytes.Equal(body, want[start:start+1024]) {
				errs <- fmt.Errorf("worker %d: body mismatch", i)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := s.Metrics().Snapshot()
	if m["cache_misses"] != 1 {
		t.Errorf("cache_misses = %d, want 1 (singleflight open)", m["cache_misses"])
	}
	if m["index_builds"] != 1 {
		t.Errorf("index_builds = %d, want exactly 1", m["index_builds"])
	}
	waitForIndexBuilds(t, s)
	if m := s.Metrics().Snapshot(); m["index_builds_done"] != 1 {
		t.Errorf("index_builds_done = %d, want 1", m["index_builds_done"])
	}

	// The built index now serves: a fresh deep read and the metrics
	// endpoint both live.
	resp, body := get(t, client, ts.URL+"/blobs/"+name, fmt.Sprintf("bytes=%d-%d", size-2048, size-1))
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, want[size-2048:]) {
		t.Fatalf("post-build read: status %d, %d bytes", resp.StatusCode, len(body))
	}
}

// TestServeConcurrentEviction is the -race stress: mixed-blob ranged
// traffic against a budget that fits roughly one handle, so the LRU
// keeps evicting entries out from under in-flight requests — bodies
// must stay oracle-identical throughout and the metrics must add up.
func TestServeConcurrentEviction(t *testing.T) {
	fx := newFixture(t, 2000)
	// handleBaseCost is 1 MiB: a ~1.25 MiB budget holds one handle.
	s, ts := newTestServer(t, fx, Options{
		CacheBudgetBytes: handleBaseCost + handleBaseCost/4,
		IndexSpacing:     256 << 10,
	})
	client := ts.Client()

	names := []string{"a.gz", "sub/stored.gz", "dense.gz", "multi.gz"}
	const workers = 6
	iters := 25
	if testing.Short() {
		iters = 8
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 977))
			for i := 0; i < iters; i++ {
				name := names[rng.Intn(len(names))]
				want := fx.oracle[name]
				size := int64(len(want))
				n := int64(1 + rng.Intn(4096))
				if n > size {
					n = size
				}
				start := rng.Int63n(size - n + 1)
				hdr := fmt.Sprintf("bytes=%d-%d", start, start+n-1)
				resp, body := get(t, client, ts.URL+"/blobs/"+name, hdr)
				if resp.StatusCode != http.StatusPartialContent {
					errs <- fmt.Errorf("worker %d %s %q: status %d", w, name, hdr, resp.StatusCode)
					return
				}
				if !bytes.Equal(body, want[start:start+n]) {
					errs <- fmt.Errorf("worker %d %s %q: body mismatch", w, name, hdr)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := s.Metrics().Snapshot()
	if m["cache_evictions"] == 0 {
		t.Error("no evictions under a one-handle budget — stress did not stress")
	}
	if m["in_flight"] != 0 {
		t.Errorf("in_flight = %d after drain", m["in_flight"])
	}
	total := int64(workers * iters)
	if m["status_206"] != total {
		t.Errorf("status_206 = %d, want %d", m["status_206"], total)
	}
	if m["bytes_served"] == 0 || m["bytes_inflated"] < m["bytes_served"] {
		// Every served byte was decoded at least once; deep seeks and
		// evicted-and-reopened handles push inflation well above it.
		t.Errorf("bytes_served=%d bytes_inflated=%d", m["bytes_served"], m["bytes_inflated"])
	}
}

// TestServeListingAndMetricsEndpoints covers the non-blob surfaces:
// the catalog listing (with sidecar/cached annotations) and the
// /metrics JSON document.
func TestServeListingAndMetricsEndpoints(t *testing.T) {
	fx := newFixture(t, 2000)
	_, ts := newTestServer(t, fx, Options{})
	client := ts.Client()

	// Warm one blob so the listing shows a cached size.
	if resp, _ := get(t, client, ts.URL+"/blobs/a.gz", "bytes=0-99"); resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("warm read: status %d", resp.StatusCode)
	}

	resp, body := get(t, client, ts.URL+"/blobs", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/blobs: status %d", resp.StatusCode)
	}
	listing := string(body)
	for _, wantSub := range []string{`"a.gz"`, `"sub/stored.gz"`, `"sidecar":true`, `"cached":true`} {
		if !bytes.Contains(body, []byte(wantSub)) {
			t.Errorf("/blobs listing missing %s in %s", wantSub, listing)
		}
	}

	resp, body = get(t, client, ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("/metrics: status %d type %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	for _, key := range []string{"requests_total", "qps_10s", "cache_hits", "index_builds", "blob.a.gz.requests"} {
		if !bytes.Contains(body, []byte(`"`+key+`"`)) {
			t.Errorf("/metrics missing key %q in %s", key, body)
		}
	}

	resp, _ = get(t, client, ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d", resp.StatusCode)
	}
}
