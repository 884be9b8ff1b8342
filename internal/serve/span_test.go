package serve

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	pugz "repro"
)

// The span tests only read their corpus, so they share one (compressing
// it costs more than any of them, many times over under -race).
var shared struct {
	once sync.Once
	dir  string
	fx   *fixture
}

func sharedFixture(t *testing.T) *fixture {
	t.Helper()
	shared.once.Do(func() {
		dir, err := os.MkdirTemp("", "serve-span-")
		if err != nil {
			t.Fatal(err)
		}
		shared.dir = dir
		shared.fx = buildFixture(t, dir, 3000)
	})
	if shared.fx == nil {
		t.Fatal("shared fixture failed to build")
	}
	return shared.fx
}

func TestMain(m *testing.M) {
	code := m.Run()
	if shared.dir != "" {
		os.RemoveAll(shared.dir)
	}
	os.Exit(code)
}

// getRange is get for goroutines: it reports instead of failing the
// test, and checks the body against the oracle slice itself.
func getRange(client *http.Client, url string, want []byte, start, n int64) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", start, start+n-1))
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return fmt.Errorf("bytes=%d-%d: body: %w", start, start+n-1, err)
	case resp.StatusCode != http.StatusPartialContent:
		return fmt.Errorf("bytes=%d-%d: status %d", start, start+n-1, resp.StatusCode)
	case !bytes.Equal(body, want[start:start+n]):
		return fmt.Errorf("bytes=%d-%d: body differs from the oracle (%d bytes)", start, start+n-1, len(body))
	}
	return nil
}

// fileSpans lists the checkpoint spans [start, end) of an indexed File;
// the tests here need at least three.
func fileSpans(t *testing.T, f *pugz.File) [][2]int64 {
	t.Helper()
	var out [][2]int64
	for off := int64(0); ; {
		start, end, ok := f.SpanAt(off)
		if !ok {
			break
		}
		out = append(out, [2]int64{start, end})
		off = end
	}
	if len(out) < 3 {
		t.Fatalf("only %d spans", len(out))
	}
	return out
}

// spansOf is fileSpans of a resident blob.
func spansOf(t *testing.T, s *Server, name string) [][2]int64 {
	t.Helper()
	f, ok := s.cache.peek(name)
	if !ok {
		t.Fatalf("%s not resident", name)
	}
	return fileSpans(t, f)
}

// TestServeSpanSingleflight: 16 concurrent requests into one cold span
// cost exactly one decode of exactly that span.
func TestServeSpanSingleflight(t *testing.T) {
	fx := sharedFixture(t)
	s, ts := newTestServer(t, fx, Options{IndexSpacing: -1})
	client := ts.Client()
	const name = "a.gz" // sidecar: indexed from the first touch
	want := fx.oracle[name]
	url := ts.URL + "/blobs/" + name

	if resp, err := client.Head(url); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD: %v %v", resp, err)
	}
	spans := spansOf(t, s, name)
	span := spans[len(spans)/2]
	f, _ := s.cache.peek(name)
	before := f.InflatedBytes()

	const N = 16
	var wg sync.WaitGroup
	errs := make(chan error, N)
	gate := make(chan struct{})
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			<-gate
			start := span[0] + i*(span[1]-span[0]-4096)/N
			errs <- getRange(client, url, want, start, 4096)
		}(int64(i))
	}
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if got := f.InflatedBytes() - before; got != span[1]-span[0] {
		t.Errorf("inflated %d bytes for %d requests into one span of %d", got, N, span[1]-span[0])
	}
	m := s.Metrics().Snapshot()
	if m["span_misses"] != 1 || m["span_hits"] != N-1 {
		t.Errorf("span_misses=%d span_hits=%d, want 1 and %d", m["span_misses"], m["span_hits"], N-1)
	}
	if m["blob."+name+".span_misses"] != 1 || m["span_bytes"] != span[1]-span[0] {
		t.Errorf("blob span_misses=%d span_bytes=%d, want 1 and %d", m["blob."+name+".span_misses"], m["span_bytes"], span[1]-span[0])
	}

	// Hot: the same ranges again decode nothing.
	for i := int64(0); i < N; i++ {
		if err := getRange(client, url, want, span[0]+i*100, 4096); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.InflatedBytes() - before; got != span[1]-span[0] {
		t.Errorf("hot requests inflated: %d bytes in total, want still %d", got, span[1]-span[0])
	}
}

// TestServeSpanRangeEdges: ranges that straddle two and three spans,
// end in the last span, run to and past EOF, sit as single bytes on
// both edges of a span, and cross from the indexed first member into
// the unindexed second.
func TestServeSpanRangeEdges(t *testing.T) {
	fx := sharedFixture(t)
	s, ts := newTestServer(t, fx, Options{IndexSpacing: 128 << 10})
	client := ts.Client()

	for _, name := range []string{"a.gz", "multi.gz", "sub/stored.gz"} {
		t.Run(name, func(t *testing.T) {
			want := fx.oracle[name]
			size := int64(len(want))
			url := ts.URL + "/blobs/" + name
			if resp, err := client.Head(url); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("HEAD: %v %v", resp, err)
			}
			waitForIndexBuilds(t, s)
			sp := spansOf(t, s, name)
			last := sp[len(sp)-1]
			indexed := last[1]    // == size unless later members follow
			ranges := [][2]int64{ // start, length
				{sp[1][1] - 10, 20},                             // straddles two
				{sp[0][0] + 5, sp[2][0] + 5 - sp[0][0]},         // straddles three, ends 10 into the third
				{sp[0][0], sp[2][1] - sp[0][0]},                 // exactly three whole spans
				{last[0] + 7, last[1] - last[0] - 7},            // to the end of the last span
				{last[0] - 3, last[1] - last[0] + 3},            // into the last span and through it
				{sp[1][0], 1}, {sp[1][1] - 1, 1}, {sp[1][1], 1}, // one byte on each edge
				{0, 1}, {size - 1, 1}, {indexed - 1, 1},
				{size - 300, 300},
			}
			if indexed < size {
				ranges = append(ranges, [2]int64{indexed - 1000, 5000}, [2]int64{indexed, 100}, [2]int64{indexed - 1, 2})
			}
			for _, r := range ranges {
				if err := getRange(client, url, want, r[0], r[1]); err != nil {
					t.Error(err)
				}
			}
			// Open-ended and past-EOF ends clamp to the stream.
			for _, hdr := range []string{
				fmt.Sprintf("bytes=%d-", last[0]+1),
				fmt.Sprintf("bytes=%d-%d", last[0]+1, size+50),
				fmt.Sprintf("bytes=-%d", size-sp[1][0]),
			} {
				resp, body := get(t, client, url, hdr)
				var start int64
				fmt.Sscanf(resp.Header.Get("Content-Range"), "bytes %d-", &start)
				if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, want[start:]) {
					t.Errorf("%q: status %d, %d bytes from %d; want the oracle's tail", hdr, resp.StatusCode, len(body), start)
				}
			}
			if m := s.Metrics().Snapshot(); m["blob."+name+".span_misses"] == 0 || m["copy_errors"] != 0 {
				t.Errorf("span_misses=%d copy_errors=%d: the span path did not serve these", m["blob."+name+".span_misses"], m["copy_errors"])
			}
		})
	}
}

// TestServeSpanTinyBudget is the -race stress of the shared budget:
// every handle fits, but fewer than three spans do, so mixed-blob
// traffic keeps evicting spans out from under concurrent requests.
// Bodies stay oracle-identical, the charged bytes never pass the
// budget, and spans — never handles — pay for the shortage.
func TestServeSpanTinyBudget(t *testing.T) {
	fx := sharedFixture(t)
	s, ts := newTestServer(t, fx, Options{IndexSpacing: 128 << 10})
	client := ts.Client()
	names := []string{"a.gz", "sub/stored.gz", "dense.gz", "multi.gz"}
	for _, name := range names {
		if resp, err := client.Head(ts.URL + "/blobs/" + name); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("HEAD %s: %v %v", name, resp, err)
		}
	}
	waitForIndexBuilds(t, s)
	span := spansOf(t, s, "a.gz")[0]
	c := s.cache
	c.mu.Lock()
	budget := c.used + 5*(span[1]-span[0])/2
	c.opts.BudgetBytes = budget
	c.mu.Unlock()

	var peak atomic.Int64
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if u := s.Metrics().CacheUsedBytes.Value(); u > peak.Load() {
				peak.Store(u)
			}
		}
	}()

	const workers = 6
	iters := 30
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*31 + 1))
			for i := 0; i < iters; i++ {
				name := names[rng.Intn(len(names))]
				want := fx.oracle[name]
				n := int64(1 + rng.Intn(200<<10)) // up to three spans
				start := rng.Int63n(int64(len(want)) - n + 1)
				if err := getRange(client, ts.URL+"/blobs/"+name, want, start, n); err != nil {
					errs <- fmt.Errorf("worker %d %s: %w", w, name, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := s.Metrics().Snapshot()
	if m["span_evictions"] == 0 {
		t.Error("no span evictions: the budget did not bite")
	}
	if m["cache_evictions"] != 0 {
		t.Errorf("cache_evictions=%d: a handle was evicted while spans could still pay", m["cache_evictions"])
	}
	if peak.Load() > budget || m["cache_used_bytes"] > budget {
		t.Errorf("cache_used_bytes peaked at %d (now %d) over a budget of %d", peak.Load(), m["cache_used_bytes"], budget)
	}
	if m["span_bytes"] > 5*(span[1]-span[0])/2 || m["span_bytes"] <= 0 {
		t.Errorf("span_bytes=%d with room for %d", m["span_bytes"], 5*(span[1]-span[0])/2)
	}
	if m["copy_errors"] != 0 || m["status_206"] != int64(workers*iters) {
		t.Errorf("copy_errors=%d status_206=%d, want 0 and %d", m["copy_errors"], m["status_206"], workers*iters)
	}
}

// TestServeSpanNoRoom: when the handles leave the budget no room for a
// span, a small range must not pay for decoding (and discarding) all of
// its span: it reads directly, inflating no more than checkpoint to
// range end plus the rest of one block, and the span counters stay put.
func TestServeSpanNoRoom(t *testing.T) {
	fx := sharedFixture(t)
	s, ts := newTestServer(t, fx, Options{})
	client := ts.Client()
	const name = "a.gz" // sidecar-indexed
	want := fx.oracle[name]
	if resp, err := client.Head(ts.URL + "/blobs/" + name); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD %s: %v %v", name, resp, err)
	}
	span := spansOf(t, s, name)[1]
	c := s.cache
	c.mu.Lock()
	c.opts.BudgetBytes = c.used + (span[1]-span[0])/2
	c.mu.Unlock()

	before := s.Metrics().Snapshot()
	const reads, n = 8, 512
	for i := 0; i < reads; i++ {
		if err := getRange(client, ts.URL+"/blobs/"+name, want, span[0]+int64(i)*n, n); err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics().Snapshot()
	if m["span_misses"] != before["span_misses"] || m["span_hits"] != before["span_hits"] || m["span_bytes"] != 0 {
		t.Errorf("span_misses=+%d span_hits=+%d span_bytes=%d without room for a span, want none",
			m["span_misses"]-before["span_misses"], m["span_hits"]-before["span_hits"], m["span_bytes"])
	}
	if d := m["bytes_inflated"] - before["bytes_inflated"]; d <= 0 || d >= reads*(span[1]-span[0])/2 {
		t.Errorf("bytes_inflated grew by %d over %d reads at the head of a %d-byte span", d, reads, span[1]-span[0])
	}
	if m["cache_evictions"] != 0 {
		t.Errorf("cache_evictions=%d", m["cache_evictions"])
	}
}

// TestServeIndexAttachMidTraffic: a handle serves through the cursor
// fallback while it has no index and through the span cache once one
// attaches, under continuous traffic, with no wrong byte either side of
// the switch.
func TestServeIndexAttachMidTraffic(t *testing.T) {
	fx := sharedFixture(t)
	s, ts := newTestServer(t, fx, Options{IndexSpacing: -1}) // no background build: the test attaches
	client := ts.Client()
	const name = "dense.gz"
	want := fx.oracle[name]
	url := ts.URL + "/blobs/" + name

	if err := getRange(client, url, want, int64(len(want))/2, 8192); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics().Snapshot(); m["span_misses"]+m["span_hits"] != 0 {
		t.Fatalf("span cache used with no index attached: %v misses, %v hits", m["span_misses"], m["span_hits"])
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	attached := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 5))
			after := 0
			for after < 20 {
				select {
				case <-attached:
					after++
				default:
				}
				n := int64(1 + rng.Intn(150<<10))
				start := rng.Int63n(int64(len(want)) - n + 1)
				if err := getRange(client, url, want, start, n); err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	f, _ := s.cache.peek(name)
	if _, err := f.BuildIndex(128 << 10); err != nil {
		t.Fatal(err)
	}
	close(attached)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m := s.Metrics().Snapshot()
	if m["span_misses"] == 0 || m["span_hits"] == 0 {
		t.Errorf("span_misses=%d span_hits=%d after the index attached: still on the fallback", m["span_misses"], m["span_hits"])
	}
}

// TestCacheSpansBelongToTheirHandle drives the eviction order directly:
// spans go before handles, a handle leaves with none behind, a handle
// still leased after its eviction serves but caches nothing, and a
// reopened blob starts cold.
func TestCacheSpansBelongToTheirHandle(t *testing.T) {
	fx := sharedFixture(t)
	cat, oracle := fx.cat, fx.oracle
	c, met := newTestCache(t, 1<<30)
	const name = "a.gz" // sidecar-indexed
	want := oracle[name]

	h := mustAcquire(t, c, cat, name)
	spans := fileSpans(t, h.File())
	spanLen := func(i int) int64 { return spans[i][1] - spans[i][0] }
	fetch := func(h *cacheHandle, i int) {
		t.Helper()
		data, err := c.span(h, spans[i][0], spans[i][1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want[spans[i][0]:spans[i][1]]) {
			t.Fatalf("span %d differs from the oracle", i)
		}
	}

	// Room for the handle and two spans, not three.
	c.mu.Lock()
	budget := c.used + spanLen(0) + spanLen(1) + spanLen(2)/2
	c.opts.BudgetBytes = budget
	c.mu.Unlock()
	fetch(h, 0)
	fetch(h, 1)
	fetch(h, 0) // a hit: span 1 is now the least recently used
	if got := met.SpanBytes.Value(); got != spanLen(0)+spanLen(1) || met.SpanHits.Value() != 1 {
		t.Fatalf("span_bytes=%d span_hits=%d, want %d and 1", got, met.SpanHits.Value(), spanLen(0)+spanLen(1))
	}
	fetch(h, 2)
	if met.SpanEvictions.Value() != 1 || met.CacheEvictions.Value() != 0 {
		t.Fatalf("span_evictions=%d cache_evictions=%d, want 1 and 0: spans go first", met.SpanEvictions.Value(), met.CacheEvictions.Value())
	}
	if got := met.SpanBytes.Value(); got != spanLen(0)+spanLen(2) || met.CacheUsedBytes.Value() > budget {
		t.Fatalf("span_bytes=%d used=%d, want spans 0 and 2 (%d) within %d", got, met.CacheUsedBytes.Value(), spanLen(0)+spanLen(2), budget)
	}

	// A budget too small for two handles: opening a second blob takes
	// a.gz's spans, then a.gz.
	c.mu.Lock()
	c.opts.BudgetBytes = handleBaseCost + handleBaseCost/4
	c.mu.Unlock()
	mustAcquire(t, c, cat, "dense.gz").Release()
	if _, resident := c.peek(name); resident || met.CacheEvictions.Value() != 1 {
		t.Fatalf("a.gz resident=%v cache_evictions=%d after a second handle overflowed the budget", resident, met.CacheEvictions.Value())
	}
	if met.SpanBytes.Value() != 0 || met.SpanEvictions.Value() != 3 {
		t.Fatalf("span_bytes=%d span_evictions=%d after the owning handle left, want 0 and 3", met.SpanBytes.Value(), met.SpanEvictions.Value())
	}

	// The evicted handle is still leased: it serves, and caches nothing.
	misses := met.SpanMisses.Value()
	fetch(h, 1)
	fetch(h, 1)
	if met.SpanBytes.Value() != 0 || met.SpanMisses.Value() != misses+2 {
		t.Fatalf("span_bytes=%d span_misses=+%d on an evicted handle, want 0 and +2", met.SpanBytes.Value(), met.SpanMisses.Value()-misses)
	}
	h.Release()

	// Reopened, the blob has a new handle and none of the old spans.
	h2 := mustAcquire(t, c, cat, name)
	defer h2.Release()
	misses = met.SpanMisses.Value()
	fetch(h2, 0)
	if met.SpanMisses.Value() != misses+1 {
		t.Fatal("a reopened handle was served a span decoded through the old one")
	}
}
