// Server walkthrough: mount a directory of gzip blobs under the
// serving subsystem (the library behind cmd/pugzd) and exercise the
// whole request surface in-process — full GETs, ranged 206s at
// decompressed offsets, an unsatisfiable 416, the catalog listing,
// and the metrics snapshot after the traffic.
//
//	go run ./examples/server
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	pugz "repro"
	"repro/baseline"
	"repro/internal/fastq"
	"repro/internal/serve"
)

func main() {
	// A blob directory: two gzip members, one with a sidecar
	// checkpoint index (as `pugz -mkindex` would leave next to it).
	dir, err := os.MkdirTemp("", "pugzd-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	reads := fastq.Generate(fastq.GenOptions{Reads: 20_000, Seed: 1})
	gz, err := baseline.Compress(reads, 6)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "reads.fastq.gz"), gz, 0o644); err != nil {
		log.Fatal(err)
	}
	ix, err := pugz.BuildIndex(gz, 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	blob, err := ix.Marshal()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "reads.fastq.gz.gzx"), blob, 0o644); err != nil {
		log.Fatal(err)
	}

	// Mount it. ScanDir picks up every *.gz and its .gzx sidecars;
	// serve.New wires the handle cache, singleflight opens, background
	// index builds, and the metrics registry.
	cat, err := serve.ScanDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	s, err := serve.New(serve.Options{
		Catalog: cat,
		File:    pugz.FileOptions{Threads: 4},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(rangeHdr string) *http.Response {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/blobs/reads.fastq.gz", nil)
		if rangeHdr != "" {
			req.Header.Set("Range", rangeHdr)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			log.Fatal(err)
		}
		return resp
	}

	// A ranged read at a decompressed offset: the response is the same
	// bytes a range request against the *inflated* file would return.
	resp := get("bytes=1000000-1000063")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("%s %s -> %d %s\n", "GET", "bytes=1000000-1000063",
		resp.StatusCode, resp.Header.Get("Content-Range"))
	fmt.Printf("  body: %q...\n", body[:32])

	// A suffix range (the last 64 bytes of the decompressed stream).
	resp = get("bytes=-64")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	fmt.Printf("GET bytes=-64 -> %d %s\n", resp.StatusCode, resp.Header.Get("Content-Range"))

	// Past EOF: a syntactically valid but unsatisfiable range is a 416
	// carrying the representation size.
	resp = get(fmt.Sprintf("bytes=%d-", int64(len(reads))))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	fmt.Printf("GET past EOF -> %d %s\n", resp.StatusCode, resp.Header.Get("Content-Range"))

	// The catalog listing and the metrics registry reflect the traffic.
	resp, err = ts.Client().Get(ts.URL + "/blobs")
	if err != nil {
		log.Fatal(err)
	}
	listing, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("listing: %s", listing)

	m := s.Metrics().Snapshot()
	fmt.Printf("metrics: requests=%d 206s=%d cache_hits=%d bytes_served=%d bytes_inflated=%d\n",
		m["requests_total"], m["status_206"], m["cache_hits"],
		m["bytes_served"], m["bytes_inflated"])
}
