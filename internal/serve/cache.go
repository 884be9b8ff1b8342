package serve

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	pugz "repro"
	"repro/internal/serve/metrics"
)

// This file is the handle layer of the serving subsystem: a
// byte-budgeted LRU of open pugz.File handles (plus their attached
// indexes), shared across requests. Opening a cold blob is
// singleflight — N concurrent cold requests trigger exactly one
// os.Open + pugz.NewFile — and the first acquire of an un-indexed
// handle kicks exactly one background checkpoint-index build, while
// requests keep serving through the File's unindexed deep-seek path in
// the meantime. Eviction is refcount-aware: a handle evicted while
// requests still hold it stays fully readable until the last Release,
// and only then closes.
//
// Under the handles sits the decoded-span cache: the plaintext of the
// checkpoint spans indexed handles have served, so a range touching a
// span some earlier request decoded is a map lookup and a write, not an
// inflate. Spans belong to their handle (a reopened blob starts with
// none), are charged byte for byte against the same budget, and are
// evicted, least recently used first, before any handle is.

// CacheOptions configures the server's handle cache.
type CacheOptions struct {
	// BudgetBytes bounds the total estimated byte cost of resident
	// handles (base handle overhead + index windows + retained restart
	// points) plus the decoded spans cached under them. 0 selects
	// 256 MiB. A single handle may exceed the budget by itself; the
	// cache then holds just that handle and no spans.
	BudgetBytes int64
	// File is the configuration applied to every opened pugz.File.
	File pugz.FileOptions
	// IndexSpacing is the checkpoint spacing of background index
	// builds (0 selects the pugz default, 1 MiB); negative disables
	// background builds entirely (sidecar indexes still load).
	IndexSpacing int64
	// Metrics receives cache traffic; required.
	Metrics *metrics.Registry
}

const defaultCacheBudget = 256 << 20

// handleBaseCost is the budget charge of one open handle before any
// index: the File's pooled cursors and window buffers, estimated, plus
// the os.File. Deliberately coarse — the budget is a residency bound,
// not an accounting audit.
const handleBaseCost = 1 << 20

// errCacheClosed reports acquire-after-Close (server shutdown).
var errCacheClosed = errors.New("serve: handle cache closed")

type handleCache struct {
	opts CacheOptions

	mu      sync.Mutex
	entries map[string]*cacheEntry // guarded by mu
	lru     *list.List             // of *cacheEntry; front = most recently used; guarded by mu
	spanLRU *list.List             // of *spanEntry, all handles'; front = most recently used; guarded by mu
	used    int64                  // handles + spans; guarded by mu
	spans   int64                  // the span part of used; guarded by mu
	closed  bool                   // guarded by mu

	flight     flightGroup[string]  // keyed by blob name: cold opens
	spanFlight flightGroup[spanKey] // cold span decodes
}

// spanKey names one checkpoint span of one resident handle. The handle
// is the entry, not the blob name: a blob evicted and reopened gets a
// new entry, so nothing decoded through the old one can be served for
// it.
type spanKey struct {
	e     *cacheEntry
	start int64
}

// spanEntry is one cached span: the plaintext from a checkpoint to the
// next. data is immutable once stored; requests write sub-slices of it
// to their responses without copying, and a span evicted mid-write
// stays valid for that request (the garbage collector, not the cache,
// frees it).
type spanEntry struct {
	key  spanKey
	data []byte
	elem *list.Element
}

type cacheEntry struct {
	blob  Blob
	f     *pugz.File
	src   *os.File
	elem  *list.Element
	stats *metrics.BlobStats

	spans map[int64]*spanEntry // by span start; guarded by handleCache.mu

	cost         int64 // current charge against the budget
	indexBytes   int64 // attached-index part of cost
	refs         int   // live handles (requests + background build)
	evicted      bool  // dropped from the cache; close on last release
	fresh        bool  // opened but never claimed: exempt from eviction
	buildKicked  bool
	lastInflated int64 // high-water mark already reported to metrics
}

func newHandleCache(o CacheOptions) *handleCache {
	if o.BudgetBytes <= 0 {
		o.BudgetBytes = defaultCacheBudget
	}
	return &handleCache{
		opts:    o,
		entries: make(map[string]*cacheEntry),
		lru:     list.New(),
		spanLRU: list.New(),
	}
}

// cacheHandle is one request's lease on an open File. Release returns
// it; the File must not be used afterwards.
type cacheHandle struct {
	c *handleCache
	e *cacheEntry
}

func (h *cacheHandle) File() *pugz.File { return h.e.f }
func (h *cacheHandle) Blob() Blob       { return h.e.blob }

// Release ends the lease: the handle's inflation since the last sample
// feeds the metrics, and an entry evicted mid-flight closes once its
// last lease ends.
func (h *cacheHandle) Release() {
	if h.e == nil {
		return
	}
	e := h.e
	h.e = nil
	h.c.releaseEntry(e)
}

// acquire leases the handle for blob b, opening it (singleflight) on a
// cold miss. The caller must Release the returned handle.
func (c *handleCache) acquire(b Blob) (*cacheHandle, error) {
	met := c.opts.Metrics
	opened := false
	for attempt := 0; ; attempt++ {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, errCacheClosed
		}
		if e, ok := c.entries[b.Name]; ok {
			e.refs++
			e.fresh = false
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			if !opened {
				// The opener already counted its miss; only acquires
				// served by an entry someone else opened count as hits.
				met.CacheHits.Add(1)
				e.stats.CacheHits.Add(1)
			}
			c.maybeBuildIndex(e)
			return &cacheHandle{c: c, e: e}, nil
		}
		c.mu.Unlock()
		if attempt > 32 {
			// An eviction storm kept deleting the entry between the open
			// and our claim; give up rather than spin (the request fails,
			// the operator sees a 500 + a saturated-budget metric).
			return nil, fmt.Errorf("serve: cache thrashing on blob %q (budget too small?)", b.Name)
		}
		if _, err := c.flight.Do(b.Name, func() (any, error) {
			opened = true
			return nil, c.open(b)
		}); err != nil {
			return nil, err
		}
		// Loop: claim the freshly inserted entry from the map (it may
		// already have been evicted by concurrent pressure; then reopen).
	}
}

// open opens blob b and inserts the entry (cold-miss path; runs inside
// the per-blob singleflight).
func (c *handleCache) open(b Blob) error {
	met := c.opts.Metrics
	met.CacheMisses.Add(1)
	met.Blob(b.Name).CacheMisses.Add(1)

	src, err := os.Open(b.Path)
	if err != nil {
		return err
	}
	fi, err := src.Stat()
	if err != nil {
		src.Close()
		return err
	}
	f, err := pugz.NewFile(src, fi.Size(), c.opts.File)
	if err != nil {
		src.Close()
		return fmt.Errorf("serve: open %s: %w", b.Name, err)
	}
	e := &cacheEntry{blob: b, f: f, src: src, fresh: true, stats: met.Blob(b.Name), spans: make(map[int64]*spanEntry)}
	if b.IndexPath != "" {
		blob, err := os.ReadFile(b.IndexPath)
		if err == nil {
			err = f.SetIndex(blob)
		}
		if err != nil {
			// A broken sidecar degrades to the no-index path (and a
			// background rebuild); it must not take the blob down.
			e.indexBytes = 0
		} else {
			e.indexBytes = int64(len(blob))
			e.buildKicked = true // sidecar attached: nothing to build
		}
	}
	e.cost = handleCost(f, e.indexBytes)

	var victims []*cacheEntry
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		f.Close()
		src.Close()
		return errCacheClosed
	}
	c.entries[b.Name] = e
	e.elem = c.lru.PushFront(e)
	c.used += e.cost
	victims = c.evictOverflowLocked(e)
	c.updateGaugesLocked()
	c.mu.Unlock()
	closeVictims(victims)
	return nil
}

// handleCost estimates a resident handle's byte charge: the base
// handle overhead, the attached index blob, and the auto-index restart
// points the File has harvested (32 KiB window each).
func handleCost(f *pugz.File, indexBytes int64) int64 {
	return handleBaseCost + indexBytes + int64(f.Checkpoints())*(32<<10)
}

// evictOverflowLocked restores the budget: first by dropping decoded
// spans, least recently used first and whichever handle owns them (a
// span costs one decode to bring back, a handle an open, a sidecar load
// or an index build), then by dropping least-recently-used entries,
// walking the LRU tail but never evicting except (the entry being used
// right now) or fresh entries (opened but not yet claimed by their
// waiters — evicting those would let a cold storm thrash opens
// forever). Exempt entries can leave the budget
// transiently overshot; the next claim clears their exemption and the
// following acquire rebalances. Returns the victims whose refcount
// already reached zero; the caller closes them after unlocking.
// Victims still leased stay usable and close on their last Release.
func (c *handleCache) evictOverflowLocked(except *cacheEntry) []*cacheEntry {
	for c.used > c.opts.BudgetBytes && c.spanLRU.Len() > 0 {
		c.dropSpanLocked(c.spanLRU.Back().Value.(*spanEntry))
	}
	var victims []*cacheEntry
	for el := c.lru.Back(); el != nil && c.used > c.opts.BudgetBytes; {
		prev := el.Prev()
		e := el.Value.(*cacheEntry)
		if e != except && !e.fresh {
			c.lru.Remove(el)
			delete(c.entries, e.blob.Name)
			c.used -= e.cost
			e.evicted = true // its spans went first: the loop above emptied spanLRU
			c.opts.Metrics.CacheEvictions.Add(1)
			e.stats.Evictions.Add(1)
			if e.refs == 0 {
				victims = append(victims, e)
			}
		}
		el = prev
	}
	return victims
}

func closeVictims(victims []*cacheEntry) {
	for _, e := range victims {
		e.f.Close()
		e.src.Close()
	}
}

func (c *handleCache) updateGaugesLocked() {
	c.opts.Metrics.CacheUsedBytes.Set(c.used)
	c.opts.Metrics.CacheHandles.Set(int64(c.lru.Len()))
	c.opts.Metrics.SpanBytes.Set(c.spans)
}

// dropSpanLocked evicts one cached span and returns its bytes to the
// budget.
func (c *handleCache) dropSpanLocked(sp *spanEntry) {
	c.spanLRU.Remove(sp.elem)
	delete(sp.key.e.spans, sp.key.start)
	c.used -= int64(len(sp.data))
	c.spans -= int64(len(sp.data))
	c.opts.Metrics.SpanEvictions.Add(1)
	sp.key.e.stats.SpanEvictions.Add(1)
}

// lookupSpan returns the cached span of e starting at start, marked
// most recently used, or nil. room tells a miss whether a span of size
// bytes could be kept at all: what the resident handles leave of the
// budget must hold it, since spans are evicted before any handle.
func (c *handleCache) lookupSpan(e *cacheEntry, start, size int64) (data []byte, room bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sp, ok := e.spans[start]; ok {
		c.spanLRU.MoveToFront(sp.elem)
		return sp.data, true
	}
	return nil, c.used-c.spans+size <= c.opts.BudgetBytes
}

// span returns the plaintext of h's checkpoint span [start, end) (see
// pugz.File.SpanAt): from the cache, from another request's decode of
// the same span already in flight (both hits), or by one ReadAt of
// exactly the span — which the index decodes from its checkpoint with
// no waste — whose result is then cached for as long as the budget and
// the handle's residency allow (a miss). The slice is shared and must
// not be written. A nil slice with a nil error means the budget has no
// room for the span next to the handles: decoding all of it for a read
// of part of it would be pure waste, and the caller reads directly.
func (c *handleCache) span(h *cacheHandle, start, end int64) ([]byte, error) {
	e, met := h.e, c.opts.Metrics
	data, room := c.lookupSpan(e, start, end-start)
	if !room {
		return nil, nil
	}
	decoded := false
	if data == nil {
		v, err := c.spanFlight.Do(spanKey{e, start}, func() (any, error) {
			// A flight that landed between the miss above and this one
			// starting has already stored the span.
			if data, _ := c.lookupSpan(e, start, end-start); data != nil {
				return data, nil
			}
			decoded = true
			met.SpanMisses.Add(1)
			e.stats.SpanMisses.Add(1)
			buf := make([]byte, end-start)
			if n, err := e.f.ReadAt(buf, start); n < len(buf) {
				if err == nil {
					err = io.ErrUnexpectedEOF
				}
				return nil, fmt.Errorf("serve: %s: span at %d: %w", e.blob.Name, start, err)
			}
			c.storeSpan(e, start, buf)
			return buf, nil
		})
		if err != nil {
			return nil, err
		}
		data = v.([]byte)
	}
	if !decoded {
		met.SpanHits.Add(1)
		e.stats.SpanHits.Add(1)
	}
	return data, nil
}

// storeSpan caches a decoded span under its handle. A handle that has
// left the cache keeps serving its leases but caches nothing more: its
// spans would outlive the entry that is charged for them.
func (c *handleCache) storeSpan(e *cacheEntry, start int64, data []byte) {
	c.mu.Lock()
	if e.evicted {
		c.mu.Unlock()
		return
	}
	sp := &spanEntry{key: spanKey{e, start}, data: data}
	sp.elem = c.spanLRU.PushFront(sp)
	e.spans[start] = sp
	c.used += int64(len(data))
	c.spans += int64(len(data))
	victims := c.evictOverflowLocked(e)
	c.updateGaugesLocked()
	c.mu.Unlock()
	closeVictims(victims)
}

// releaseEntry drops one lease: samples the File's inflation delta
// into the metrics and closes the entry if it was evicted mid-flight
// and this was the last lease.
func (c *handleCache) releaseEntry(e *cacheEntry) {
	met := c.opts.Metrics
	var closeNow bool
	c.mu.Lock()
	if d := e.f.InflatedBytes() - e.lastInflated; d > 0 {
		e.lastInflated += d
		met.BytesInflated.Add(d)
	}
	e.refs--
	closeNow = e.evicted && e.refs == 0
	c.mu.Unlock()
	if closeNow {
		e.f.Close()
		e.src.Close()
	}
}

// maybeBuildIndex kicks the one background checkpoint-index build an
// un-indexed entry gets (per residency): singleflight by construction
// — the kicked flag flips under the cache lock — and ref-held so an
// eviction mid-build cannot close the File under the builder.
func (c *handleCache) maybeBuildIndex(e *cacheEntry) {
	if c.opts.IndexSpacing < 0 {
		return
	}
	c.mu.Lock()
	if e.buildKicked || e.evicted || c.closed {
		c.mu.Unlock()
		return
	}
	e.buildKicked = true
	e.refs++
	c.mu.Unlock()

	met := c.opts.Metrics
	met.IndexBuilds.Add(1)
	go func() {
		t0 := time.Now()
		ix, err := e.f.BuildIndex(c.opts.IndexSpacing)
		d := time.Since(t0)
		if err != nil {
			met.IndexBuildErrors.Add(1)
		} else {
			met.IndexBuildsDone.Add(1)
			met.IndexBuildNanos.Add(d.Nanoseconds())
			met.IndexBuildLastNanos.Set(d.Nanoseconds())
			// ~32 KiB of window per checkpoint, now charged to the
			// budget (the marshalled form is deflated, but the attached
			// form is what's resident).
			c.recost(e, int64(ix.Checkpoints())*(32<<10+64))
		}
		c.releaseEntry(e)
	}()
}

// recost re-charges an entry after its index materialised, then
// rebalances the budget.
func (c *handleCache) recost(e *cacheEntry, indexBytes int64) {
	var victims []*cacheEntry
	c.mu.Lock()
	e.indexBytes = indexBytes
	if !e.evicted {
		next := handleCost(e.f, e.indexBytes)
		c.used += next - e.cost
		e.cost = next
		victims = c.evictOverflowLocked(e)
		c.updateGaugesLocked()
	}
	c.mu.Unlock()
	closeVictims(victims)
}

// peek returns the resident File for name without taking a lease —
// for the catalog listing's non-forcing size probe only (the caller
// may only touch lock-free diagnostics like CachedSize, which stay
// safe even if the entry is evicted concurrently).
func (c *handleCache) peek(name string) (*pugz.File, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[name]; ok {
		return e.f, true
	}
	return nil, false
}

// close evicts everything and refuses further acquires. Entries with
// live leases close on their last Release.
func (c *handleCache) close() {
	var victims []*cacheEntry
	c.mu.Lock()
	c.closed = true
	for name, e := range c.entries {
		delete(c.entries, name)
		e.evicted = true
		e.spans = nil
		if e.refs == 0 {
			victims = append(victims, e)
		}
	}
	c.lru.Init()
	c.spanLRU.Init()
	c.used, c.spans = 0, 0
	c.updateGaugesLocked()
	c.mu.Unlock()
	closeVictims(victims)
}
