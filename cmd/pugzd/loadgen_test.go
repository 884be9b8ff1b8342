package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	pugz "repro"
	"repro/baseline"
	"repro/internal/fastq"
	"repro/internal/serve"
)

// TestRunLoadgen drives the generator end-to-end against an in-process
// serve.Server: discovery, warmup HEADs, the mixed trace, and the
// report — every replayed request must come back a correct 206.
func TestRunLoadgen(t *testing.T) {
	dir := t.TempDir()
	for i, seed := range []int64{21, 22} {
		data := fastq.Generate(fastq.GenOptions{Reads: 800, Seed: seed})
		gz, err := baseline.Compress(data, 6)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Join(dir, string(rune('a'+i))+".gz")
		if err := os.WriteFile(name, gz, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cat, err := serve.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Options{
		Catalog: cat,
		File:    pugz.FileOptions{Threads: 2, MinChunk: 16 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	var out bytes.Buffer
	rep, err := runLoadgen(ts.URL, loadOptions{
		Duration:   500 * time.Millisecond,
		Workers:    4,
		SeqFrac:    0.5,
		RangeBytes: 4096,
		Seed:       7,
	}, &out)
	if err != nil {
		t.Fatalf("runLoadgen: %v\n%s", err, out.String())
	}
	if rep.Errors != 0 {
		t.Fatalf("loadgen saw %d errors out of %d requests\n%s", rep.Errors, rep.Requests, out.String())
	}
	if rep.Requests == 0 || rep.Bytes == 0 {
		t.Fatalf("loadgen did no work: %+v", rep)
	}
	if !strings.Contains(out.String(), "latency p50=") {
		t.Fatalf("report missing percentiles:\n%s", out.String())
	}
}
