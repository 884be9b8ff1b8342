// Command pugzd is a long-running HTTP daemon serving a catalog of
// gzip blobs with random access at *decompressed* offsets, built on
// the seekable pugz.File surface. A Range request against a mounted
// .gz behaves exactly like one against the inflated file — 206s,
// suffix ranges, 416s — without the inflated file ever existing:
//
//	pugzd -t 8 -dir /data/blobs                 # serve every *.gz under the dir
//	pugzd -manifest blobs.txt -addr :8457       # serve an explicit blob list
//	curl -H 'Range: bytes=1000000-1003999' localhost:8457/blobs/reads.fastq.gz
//	curl localhost:8457/blobs                   # the catalog listing
//	curl localhost:8457/metrics                 # qps, cache traffic, build latency
//
// Open pugz.File handles (and their checkpoint indexes) are shared
// across requests through a byte-budgeted LRU; the first request for
// an un-indexed blob kicks exactly one background index build while
// requests keep serving through unindexed deep seeks. SIGINT/SIGTERM
// drains in-flight requests (up to -drain) and exits 0.
//
// With -loadtest, pugzd is its own load generator instead of a
// server: it replays a mixed sequential/random offset trace against a
// running daemon and reports latency percentiles:
//
//	pugzd -loadtest -duration 10s -c 16 -seqfrac 0.7 http://localhost:8457
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	pugz "repro"
	"repro/internal/cliutil"
	"repro/internal/serve"
)

func main() {
	threads := cliutil.Threads()
	addr := flag.String("addr", ":8457", "listen address")
	dir := flag.String("dir", "", "serve every *.gz under this directory (with .gzx sidecar indexes when present)")
	manifest := flag.String("manifest", "", "serve the blobs listed in this manifest (one 'name path' or bare path per line)")
	cacheBytes := flag.Int64("cache-bytes", 0, "cache budget in bytes, open handles plus decoded spans (default 256 MiB)")
	spacing := flag.Int64("spacing", 0, "background checkpoint-index spacing in decompressed bytes (default 1 MiB; negative disables builds)")
	drain := flag.Duration("drain", 10*time.Second, "in-flight request drain timeout on shutdown")

	loadtest := flag.Bool("loadtest", false, "run as a load generator against a daemon URL instead of serving")
	duration := flag.Duration("duration", 5*time.Second, "with -loadtest: trace duration")
	conc := flag.Int("c", 8, "with -loadtest: concurrent clients")
	seqfrac := flag.Float64("seqfrac", 0.5, "with -loadtest: fraction of requests continuing a sequential cursor (rest seek randomly)")
	rangeBytes := flag.Int64("rangebytes", 64<<10, "with -loadtest: maximum bytes per ranged request")
	seed := flag.Int64("seed", 1, "with -loadtest: trace RNG seed")
	flag.Parse()

	if *loadtest {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: pugzd -loadtest [-duration D] [-c N] [-seqfrac F] [-rangebytes N] [-seed N] http://host:port")
			os.Exit(2)
		}
		rep, err := runLoadgen(flag.Arg(0), loadOptions{
			Duration:   *duration,
			Workers:    *conc,
			SeqFrac:    *seqfrac,
			RangeBytes: *rangeBytes,
			Seed:       *seed,
		}, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if rep.Errors > 0 {
			fatal(fmt.Errorf("loadtest: %d of %d requests failed", rep.Errors, rep.Requests))
		}
		return
	}

	if (*dir == "") == (*manifest == "") {
		fmt.Fprintln(os.Stderr, "usage: pugzd [-t N] [-addr HOST:PORT] [-cache-bytes N] [-spacing N] [-drain D] -dir DIR | -manifest FILE")
		os.Exit(2)
	}
	var cat *serve.Catalog
	var err error
	if *dir != "" {
		cat, err = serve.ScanDir(*dir)
	} else {
		cat, err = serve.LoadManifest(*manifest)
	}
	if err != nil {
		fatal(err)
	}

	s, err := serve.New(serve.Options{
		Catalog:          cat,
		CacheBudgetBytes: *cacheBytes,
		IndexSpacing:     *spacing,
		File:             pugz.FileOptions{Threads: *threads},
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "pugzd: serving %d blobs on %s\n", cat.Len(), ln.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "pugzd: %v, draining (max %v)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(ctx)
		cancel()
		s.Close()
		if err != nil {
			fatal(fmt.Errorf("drain: %w", err))
		}
		fmt.Fprintln(os.Stderr, "pugzd: clean shutdown")
	case err := <-errc:
		s.Close()
		fatal(err)
	}
}

func fatal(err error) {
	cliutil.Fatal("pugzd", err)
}
