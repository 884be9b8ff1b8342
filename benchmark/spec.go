package main

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// metricSpec names one metric with its unit and direction. The two
// tables below are what the program prints; ../BENCHMARK.json lists the
// same names (bench_test.go holds them equal) and adds the bounds.
type metricSpec struct{ name, unit, better string }

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"out_mbps", "MB/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"first_byte_p50_ms", "ms", "lower"},
	{"cpu_s_per_gb", "CPU-s/GB", "lower"},
	{"inflated_per_served", "ratio", "lower"},
}

// perLayer is the layer ladder, bottom rung first.
var perLayer = []metricSpec{
	{"bitio.refill_ns", "ns", "lower"},
	{"huffman.init_cold_us", "us", "lower"},
	{"huffman.init_memo_us", "us", "lower"},
	{"huffman.fast_init_us", "us", "lower"},
	{"flate.exact_mbps", "MB/s", "higher"},
	{"flate.exact_nofast_mbps", "MB/s", "higher"},
	{"flate.tail_mbps", "MB/s", "higher"},
	{"flate.fast_share", "ratio", "higher"},
	{"tracked.pass1_mbps", "MB/s", "higher"},
	{"tracked.tail_mbps", "MB/s", "higher"},
	{"tracked.resolve_mbps", "MB/s", "higher"},
	{"tracked.unresolved_share", "ratio", "lower"},
	{"blockfind.sync_ms", "ms", "lower"},
	{"blockfind.bits_per_sync", "count", "lower"},
	{"blockfind.reject_share", "ratio", "higher"},
	{"core.payload_t1_mbps", "MB/s", "higher"},
	{"core.payload_tn_mbps", "MB/s", "higher"},
	{"core.sync_share", "ratio", "lower"},
	{"core.pass1_share", "ratio", "lower"},
	{"core.pass2seq_share", "ratio", "lower"},
	{"core.pass2par_share", "ratio", "lower"},
	{"core.pipeline_mbps", "MB/s", "higher"},
	{"core.pipeline_skip_mbps", "MB/s", "higher"},
	{"gzipx.verify_share", "ratio", "lower"},
	{"ref.gunzip_mbps", "MB/s", "higher"},
	{"pugz.decompress_t1_mbps", "MB/s", "higher"},
	{"pugz.decompress_tn_mbps", "MB/s", "higher"},
	{"pugz.reader_t1_mbps", "MB/s", "higher"},
	{"pugz.reader_tn_mbps", "MB/s", "higher"},
	{"pugz.speedup_tn_vs_t1", "ratio", "higher"},
	{"pugz.speedup_vs_gunzip", "ratio", "higher"},
	{"gzindex.build_seq_mbps", "MB/s", "higher"},
	{"gzindex.marshal_ms", "ms", "lower"},
	{"gzindex.unmarshal_ms", "ms", "lower"},
	{"gzindex.readat_p50_us", "us", "lower"},
	{"gzindex.bytes_per_checkpoint", "B", "lower"},
	{"file.readat_indexed_p50_us", "us", "lower"},
	{"file.readat_cursor_p50_us", "us", "lower"},
	{"file.readat_cold_ms", "ms", "lower"},
	{"file.size_ms", "ms", "lower"},
	{"file.build_index_ms", "ms", "lower"},
	{"file.inflated_per_read", "ratio", "lower"},
	{"framing.fastq_mbps", "MB/s", "higher"},
	{"framing.newline_mbps", "MB/s", "higher"},
	{"records.scan_mbps", "MB/s", "higher"},
	{"serve.handler_p50_us", "us", "lower"},
	{"serve.http_p50_us", "us", "lower"},
	{"serve.hot_p50_ms", "ms", "lower"},
	{"serve.uniform_p50_ms", "ms", "lower"},
	{"serve.scan_p50_ms", "ms", "lower"},
	{"serve.cache_hits", "count", "higher"},
	{"serve.cache_misses", "count", "lower"},
	{"serve.evictions", "count", "lower"},
	{"serve.index_builds", "count", "lower"},
	{"proc.alloc_per_out", "ratio", "lower"},
	{"proc.peak_rss_mb", "MB", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
}

// set stores a metric under the unit its table declares.
func (r *result) set(name string, v float64) {
	for _, table := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range table {
			if m.name == name {
				r.Metrics[name] = metric{v, m.unit}
				return
			}
		}
	}
	panic("pugzbench: metric " + name + " is in neither table")
}

// benchSpec is ../BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(benchDir string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(benchDir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, err
	}
	return &s, nil
}
