// Package serve is the serving layer over pugz.File: a catalog of
// gzip blobs at rest exposed as an HTTP resource with full RFC 7233
// single-range semantics at *decompressed* offsets. A Range request
// against a 40 GiB .gz behaves exactly like one against the inflated
// file — without the file ever existing inflated — because every
// response decodes only the checkpoint spans it touches and no other
// request has decoded yet (indexed), the scan tail (pooled cursors), or
// the skip distance (unindexed deep seeks) that pugz.File needs for
// that read.
//
// The subsystem has three layers:
//
//   - Catalog: the immutable blob set (directory scan or manifest).
//   - handleCache: a byte-budgeted, refcount-aware LRU of open
//     pugz.File handles shared across requests, with per-blob
//     singleflight opens, one background checkpoint-index build per
//     resident handle, and under each indexed handle the decoded
//     checkpoint spans it has served, charged to the same budget.
//   - Server: the HTTP surface (GET/HEAD /blobs/{name}, the listing,
//     health, and the metrics registry).
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"

	pugz "repro"
	"repro/internal/serve/metrics"
)

// Options configures a Server.
type Options struct {
	// Catalog is the blob set to serve; required.
	Catalog *Catalog
	// CacheBudgetBytes bounds the handle cache and the decoded spans
	// cached under it (see CacheOptions).
	CacheBudgetBytes int64
	// File configures every opened pugz.File (threads, batch size,
	// cursor pool).
	File pugz.FileOptions
	// IndexSpacing is the background index build spacing; negative
	// disables builds (see CacheOptions.IndexSpacing).
	IndexSpacing int64
}

// fallbackCopyBytes is the copy granularity of bodies served without an
// index (a handle whose background build has not attached yet, and the
// members after the first): the File.Records scan chunk, large enough
// that the pooled cursor's per-call cost does not show. Indexed bodies
// are written from cached spans and need no buffer.
const fallbackCopyBytes = 256 << 10

// Server serves a Catalog over HTTP. Create with New, mount Handler,
// Close on shutdown (after the HTTP server has drained).
type Server struct {
	cat   *Catalog
	cache *handleCache
	met   *metrics.Registry
	bulk  *pacer
}

// New builds a Server over the given catalog.
func New(o Options) (*Server, error) {
	if o.Catalog == nil || o.Catalog.Len() == 0 {
		return nil, fmt.Errorf("serve: empty catalog")
	}
	met := metrics.New()
	s := &Server{
		cat: o.Catalog,
		cache: newHandleCache(CacheOptions{
			BudgetBytes:  o.CacheBudgetBytes,
			File:         o.File,
			IndexSpacing: o.IndexSpacing,
			Metrics:      met,
		}),
		met:  met,
		bulk: newPacer(int64(runtime.GOMAXPROCS(0))*bulkBytesPerSecPerCPU, bulkBucketBytes),
	}
	return s, nil
}

// Metrics returns the server's registry (also mounted at /metrics).
func (s *Server) Metrics() *metrics.Registry { return s.met }

// Catalog returns the served catalog.
func (s *Server) Catalog() *Catalog { return s.cat }

// Close releases every cached handle. In-flight requests finish
// normally (their handles close on release); call after the HTTP
// server has drained.
func (s *Server) Close() error {
	s.cache.close()
	return nil
}

// Handler returns the HTTP surface:
//
//	GET /healthz          liveness probe
//	GET /metrics          the metrics registry as JSON
//	GET /blobs            the catalog listing as JSON
//	GET|HEAD /blobs/{name}  the blob, at decompressed offsets,
//	                        with RFC 7233 single-range support
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.Handle("/metrics", s.met)
	mux.HandleFunc("/blobs", s.handleList)
	mux.HandleFunc("/blobs/", func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/blobs/")
		if name == "" {
			s.handleList(w, r)
			return
		}
		s.handleBlob(w, r, name)
	})
	return mux
}

// blobListing is one /blobs entry. Size is present only when the
// decompressed size is already known (a resident handle measured it or
// carries a whole-file index) — the listing never forces a measuring
// pass.
type blobListing struct {
	Name           string `json:"name"`
	CompressedSize int64  `json:"compressedSize"`
	Size           *int64 `json:"size,omitempty"`
	Sidecar        bool   `json:"sidecar,omitempty"`
	Cached         bool   `json:"cached,omitempty"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	list := make([]blobListing, 0, s.cat.Len())
	for _, name := range s.cat.Names() {
		b, _ := s.cat.Lookup(name)
		entry := blobListing{
			Name:           name,
			CompressedSize: b.CompressedSize,
			Sidecar:        b.IndexPath != "",
		}
		if f, ok := s.cache.peek(name); ok {
			entry.Cached = true
			if size, known := f.CachedSize(); known {
				entry.Size = &size
			}
		}
		list = append(list, entry)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(list)
}

// handleBlob answers GET/HEAD /blobs/{name}: a 200 with the full
// decompressed body, a 206 for a satisfiable single byte-range, a 416
// (with Content-Range: bytes */size) for a valid-but-unsatisfiable
// one, and a 200 for Range headers the server may ignore (multi-range
// sets, other units, malformed values).
func (s *Server) handleBlob(w http.ResponseWriter, r *http.Request, name string) {
	rec := &respRecorder{ResponseWriter: w}
	s.met.InFlight.Add(1)
	defer func() {
		s.met.InFlight.Add(-1)
		s.met.ObserveRequest(rec.status, rec.bytes)
		bs := s.met.Blob(name)
		bs.Requests.Add(1)
		bs.BytesServed.Add(rec.bytes)
	}()

	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		rec.Header().Set("Allow", "GET, HEAD")
		http.Error(rec, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	blob, ok := s.cat.Lookup(name)
	if !ok {
		http.Error(rec, "no such blob", http.StatusNotFound)
		return
	}
	h, err := s.cache.acquire(blob)
	if err != nil {
		if os.IsNotExist(err) {
			http.Error(rec, "blob vanished from disk", http.StatusNotFound)
		} else {
			http.Error(rec, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	defer h.Release()
	f := h.File()

	size, err := f.Size()
	if err != nil {
		http.Error(rec, fmt.Sprintf("sizing %s: %v", name, err), http.StatusInternalServerError)
		return
	}

	status := http.StatusOK
	span := byteRange{start: 0, length: size}
	if rng, ok, rerr := parseRange(r.Header.Get("Range"), size); rerr != nil {
		rec.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", size))
		http.Error(rec, "requested range not satisfiable", http.StatusRequestedRangeNotSatisfiable)
		return
	} else if ok {
		status = http.StatusPartialContent
		span = rng
		rec.Header().Set("Content-Range",
			fmt.Sprintf("bytes %d-%d/%d", span.start, span.start+span.length-1, size))
	}

	hd := rec.Header()
	hd.Set("Accept-Ranges", "bytes")
	hd.Set("Content-Type", "application/octet-stream")
	hd.Set("Content-Length", strconv.FormatInt(span.length, 10))
	hd.Set("Last-Modified", blob.ModTime.UTC().Format(http.TimeFormat))
	rec.WriteHeader(status)
	if r.Method == http.MethodHead || span.length == 0 {
		return
	}

	if err := s.writeBody(rec, h, span.start, span.length); err != nil {
		// The status line is gone; all we can do is cut the body short
		// (the client sees a truncated Content-Length) and count it.
		s.met.CopyErrors.Add(1)
	}
}

// writeBody writes decompressed bytes [off, off+n) of h's blob to w.
// Inside an attached index the body is sub-slices of cached checkpoint
// spans, each decoded at most once however many requests touch it,
// paced past the body's first bulkAfterBytes (see pace.go); where no
// index reaches — none attached yet, or past the first
// member — or the budget has no room for a span, the rest streams
// through File.ReadAt, which inflates no more than the read needs.
func (s *Server) writeBody(w io.Writer, h *cacheHandle, off, n int64) error {
	f := h.File()
	cached := &bulkWriter{w: w, bucket: s.bulk}
	for n > 0 {
		var data []byte
		start, end, ok := f.SpanAt(off)
		if ok {
			var err error
			if data, err = s.cache.span(h, start, end); err != nil {
				return err
			}
		}
		if data == nil {
			buf := make([]byte, min(n, fallbackCopyBytes))
			_, err := io.CopyBuffer(w, io.NewSectionReader(f, off, n), buf)
			return err
		}
		piece := data[off-start:]
		if int64(len(piece)) > n {
			piece = piece[:n]
		}
		if _, err := cached.Write(piece); err != nil {
			return err
		}
		off += int64(len(piece))
		n -= int64(len(piece))
	}
	return nil
}

// respRecorder captures the status and body bytes of a response for
// the metrics layer.
type respRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *respRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *respRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}
