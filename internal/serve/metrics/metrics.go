// Package metrics is the observability layer of the pugzd serving
// subsystem: a small, dependency-free registry of atomic counters and
// gauges in the expvar style, exported as one JSON document over HTTP
// (GET /metrics). Each serve.Server owns its own Registry — nothing is
// process-global — so tests (and multi-tenant embeddings) never
// collide on metric names the way expvar.Publish does.
package metrics

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// rateWindow tracks a recent-requests rate over a ring of per-second
// buckets, so /metrics can report a live qps figure instead of only a
// lifetime average.
type rateWindow struct {
	mu      sync.Mutex
	buckets [rateBuckets]int64 // guarded by mu
	seconds [rateBuckets]int64 // unix second each bucket counts; guarded by mu
}

const (
	rateBuckets = 16
	rateSpanSec = 10 // the window the qps figure averages over
)

func (r *rateWindow) add(now time.Time, n int64) {
	sec := now.Unix()
	i := int(sec % rateBuckets)
	r.mu.Lock()
	if r.seconds[i] != sec {
		r.seconds[i] = sec
		r.buckets[i] = 0
	}
	r.buckets[i] += n
	r.mu.Unlock()
}

// perSec averages the completed last rateSpanSec seconds.
func (r *rateWindow) perSec(now time.Time) float64 {
	sec := now.Unix()
	var sum int64
	r.mu.Lock()
	for i := 0; i < rateBuckets; i++ {
		if age := sec - r.seconds[i]; age >= 1 && age <= rateSpanSec {
			sum += r.buckets[i]
		}
	}
	r.mu.Unlock()
	return float64(sum) / rateSpanSec
}

// BlobStats is the per-blob slice of the registry: handle-cache
// traffic and serving volume for one catalog entry.
type BlobStats struct {
	Requests    Counter
	BytesServed Counter
	CacheHits   Counter
	CacheMisses Counter
	Evictions   Counter
	// Decoded-span cache traffic (see Registry.SpanHits).
	SpanHits      Counter
	SpanMisses    Counter
	SpanEvictions Counter
}

// Registry holds every metric the serving subsystem exports. The zero
// value is not usable; construct with New.
type Registry struct {
	start time.Time
	rate  rateWindow

	// Request-side. The status classes are disjoint: a 206 counts in
	// Status206 only, not in Status2xx.
	Requests  Counter // every HTTP request routed to the server
	Status2xx Counter // full-body successes (200, ...)
	Status206 Counter // partial-content responses
	Status416 Counter // unsatisfiable ranges
	Status4xx Counter // other client errors (404, 405, ...)
	Status5xx Counter // server errors
	InFlight  Gauge   // requests currently being served

	// CopyErrors counts bodies cut short after the status line was
	// already written (client went away, or a decode error mid-body).
	CopyErrors Counter

	// Volume: BytesServed is response-body bytes; BytesInflated is the
	// decompressed bytes the engine decoded or skipped to produce them
	// (pugz.File.InflatedBytes deltas), so inflated/served is the
	// subsystem's read amplification.
	BytesServed   Counter
	BytesInflated Counter

	// Handle-cache totals (per-blob splits live in BlobStats).
	CacheHits      Counter
	CacheMisses    Counter
	CacheEvictions Counter
	CacheUsedBytes Gauge // current byte cost of resident handles and their cached spans
	CacheHandles   Gauge // resident handle count

	// Decoded-span cache, charged against the same budget as the handles
	// (CacheUsedBytes includes SpanBytes). A hit is a checkpoint span
	// served from memory or from another request's decode in flight; a
	// miss is one span decode, so BytesInflated grows by one span length
	// per miss and not at all per hit.
	SpanHits      Counter
	SpanMisses    Counter
	SpanEvictions Counter
	SpanBytes     Gauge // decoded bytes resident

	// Index builds (the background singleflight path).
	IndexBuilds         Counter // builds started
	IndexBuildsDone     Counter // builds completed successfully
	IndexBuildErrors    Counter
	IndexBuildNanos     Counter // total wall time of completed builds
	IndexBuildLastNanos Gauge   // wall time of the most recent build

	mu    sync.Mutex
	blobs map[string]*BlobStats // guarded by mu
}

// New returns an empty registry; the qps window starts now.
func New() *Registry {
	return &Registry{start: time.Now(), blobs: make(map[string]*BlobStats)}
}

// Blob returns (creating on first use) the per-blob stats for name.
func (g *Registry) Blob(name string) *BlobStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.blobs[name]
	if b == nil {
		b = &BlobStats{}
		g.blobs[name] = b
	}
	return b
}

// ObserveRequest records one finished request: its status class and
// body bytes, feeding both the lifetime counters and the qps window.
func (g *Registry) ObserveRequest(status int, bodyBytes int64) {
	g.Requests.Add(1)
	g.rate.add(time.Now(), 1)
	g.BytesServed.Add(bodyBytes)
	switch {
	case status == http.StatusPartialContent:
		g.Status206.Add(1)
	case status == http.StatusRequestedRangeNotSatisfiable:
		g.Status416.Add(1)
	case status >= 200 && status < 300:
		g.Status2xx.Add(1)
	case status >= 400 && status < 500:
		g.Status4xx.Add(1)
	case status >= 500:
		g.Status5xx.Add(1)
	}
}

// Snapshot flattens every integer metric into one map; float-valued
// derived figures (qps) are excluded — see ServeHTTP. Keys are stable:
// tests and the load generator parse them.
func (g *Registry) Snapshot() map[string]int64 {
	m := map[string]int64{
		"requests_total":         g.Requests.Value(),
		"status_2xx":             g.Status2xx.Value(),
		"status_206":             g.Status206.Value(),
		"status_416":             g.Status416.Value(),
		"status_4xx":             g.Status4xx.Value(),
		"status_5xx":             g.Status5xx.Value(),
		"copy_errors":            g.CopyErrors.Value(),
		"in_flight":              g.InFlight.Value(),
		"bytes_served":           g.BytesServed.Value(),
		"bytes_inflated":         g.BytesInflated.Value(),
		"cache_hits":             g.CacheHits.Value(),
		"cache_misses":           g.CacheMisses.Value(),
		"cache_evictions":        g.CacheEvictions.Value(),
		"cache_used_bytes":       g.CacheUsedBytes.Value(),
		"cache_handles":          g.CacheHandles.Value(),
		"span_hits":              g.SpanHits.Value(),
		"span_misses":            g.SpanMisses.Value(),
		"span_evictions":         g.SpanEvictions.Value(),
		"span_bytes":             g.SpanBytes.Value(),
		"index_builds":           g.IndexBuilds.Value(),
		"index_builds_done":      g.IndexBuildsDone.Value(),
		"index_build_errors":     g.IndexBuildErrors.Value(),
		"index_build_nanos":      g.IndexBuildNanos.Value(),
		"index_build_last_nanos": g.IndexBuildLastNanos.Value(),
		"uptime_seconds":         int64(time.Since(g.start).Seconds()),
	}
	g.mu.Lock()
	for name, b := range g.blobs {
		m["blob."+name+".requests"] = b.Requests.Value()
		m["blob."+name+".bytes_served"] = b.BytesServed.Value()
		m["blob."+name+".cache_hits"] = b.CacheHits.Value()
		m["blob."+name+".cache_misses"] = b.CacheMisses.Value()
		m["blob."+name+".evictions"] = b.Evictions.Value()
		m["blob."+name+".span_hits"] = b.SpanHits.Value()
		m["blob."+name+".span_misses"] = b.SpanMisses.Value()
		m["blob."+name+".span_evictions"] = b.SpanEvictions.Value()
	}
	g.mu.Unlock()
	return m
}

// ServeHTTP renders the registry as a single sorted JSON object: the
// integer snapshot plus derived floats (qps over the last 10 s, the
// lifetime average, and bytes inflated per byte served).
func (g *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	snap := g.Snapshot()
	doc := make(map[string]any, len(snap)+3)
	for k, v := range snap {
		doc[k] = v
	}
	doc["qps_10s"] = g.rate.perSec(time.Now())
	if up := time.Since(g.start).Seconds(); up > 0 {
		doc["qps_lifetime"] = float64(g.Requests.Value()) / up
	}
	if served := g.BytesServed.Value(); served > 0 {
		doc["inflated_per_served"] = float64(g.BytesInflated.Value()) / float64(served)
	}
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Header().Set("Content-Type", "application/json")
	// Hand-rolled ordered emission: encoding/json would sort map keys
	// too, but building the ordered form keeps the output stable even
	// if the doc ever moves to a struct-free encoder.
	w.Write([]byte("{\n"))
	for i, k := range keys {
		kb, _ := json.Marshal(k)
		vb, _ := json.Marshal(doc[k])
		w.Write(kb)
		w.Write([]byte(": "))
		w.Write(vb)
		if i < len(keys)-1 {
			w.Write([]byte(","))
		}
		w.Write([]byte("\n"))
	}
	w.Write([]byte("}\n"))
}
