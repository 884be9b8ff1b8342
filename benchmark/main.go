// Command pugzbench is this repository's benchmark: it generates its
// own inputs from a seed, runs one workload's pinned number of
// operations, checks every output against the plaintext it compressed,
// and prints every metric by name. See README.md for the workloads, the metrics and the
// layer ladder, and ../BENCHMARK.json for the contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    int    // corpus sizes are divided by this: 1 in every run, 16 in the tests
	dir      string // the benchmark's own directory; scratch and traces go to dir/out
	threads  int    // decode threads and HTTP clients: min(nproc, 4)
}

func (c config) tmpRoot() string { return filepath.Join(c.dir, "out") }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// count adds a round's ops to the run's totals.
func (r *result) count(rr roundResult) {
	r.Attempted += rr.attempted
	r.Failed += rr.failed
}

func main() {
	var cfg config
	var trace, aa int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs and request traces")
	flag.Float64Var(&cfg.seconds, "seconds", nominalSecs, "nominal length of the timed phase: scales the pinned op counts")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and out/trace-<workload>.json")
	flag.StringVar(&cfg.dir, "dir", "benchmark", "the benchmark's directory")
	flag.IntVar(&aa, "aa", 0, "run two interleaved sets of N runs of -workload (default: of each workload) and compare them (A/A)")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.scale = 1
	cfg.threads = min(runtime.NumCPU(), 4)

	if aa > 0 {
		os.Exit(runAA(cfg, aa))
	}
	w := findWorkload(cfg.workload)
	if w == nil || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: pugzbench -workload {%s} [-seed N] [-seconds S] [-trace 0|1]\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	res, err := run(cfg, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pugzbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pugzbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// envStamp describes the box and the build, so numbers from different
// boxes are never compared silently.
func envStamp(cfg config) map[string]string {
	env := map[string]string{
		"threads":    fmt.Sprint(cfg.threads),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        "unknown",
		"commit":     "unknown",
		"loadavg":    "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		env["loadavg"] = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env["commit"] += "+dirty"
				}
			}
		}
	}
	return env
}

// run sets the workload up, warms it, measures it, and returns the
// result: the end-to-end metrics of an untraced run, or the per-layer
// metrics of a traced one.
func run(cfg config, w *workload) (*result, error) {
	env := envStamp(cfg)
	fmt.Printf("pugzbench workload=%s seed=%d seconds=%g trace=%v scale=1/%d\n", w.name, cfg.seed, cfg.seconds, cfg.trace, cfg.scale)
	for _, k := range []string{"threads", "nproc", "gomaxprocs", "cpu", "go", "commit", "loadavg"} {
		fmt.Printf("env %-10s %s\n", k, env[k])
	}

	// Set-up, several times over: everything before warm-up (corpus
	// generation, compression, sidecar index builds, server start).
	// Nothing is cached on disk between runs or repetitions, so setup_s
	// is one population. A traced run reports no setup_s and sets up once.
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var fx *fixture
	var setups []float64
	for i := 0; i < reps; i++ {
		if fx != nil {
			fx.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if fx, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer fx.close()
	for _, c := range fx.corpora {
		fmt.Printf("corpus %-9s plain %9d B sha256 %s\n", c.name, len(c.plain), c.plainSHA)
		fmt.Printf("corpus %-9s gzip  %9d B sha256 %s\n", c.name, len(c.gz), c.gzSHA)
		if err := c.checkPinned(cfg.seed, cfg.scale); err != nil {
			return nil, err
		}
	}

	fails := &failures{}
	res := &result{Metrics: map[string]metric{}}
	res.count(runOps(fx, (w.warmup+fx.clients-1)/fx.clients, nil, fails))

	if cfg.trace {
		if err := runTraced(cfg, w, fx, env, fails, res); err != nil {
			return nil, err
		}
	} else {
		runTimed(cfg, w, fx, fails, res)
		res.set("setup_s", median(setups))
		fmt.Printf("set-up repetitions (s): %.4f\n", setups)
	}
	if fx.postCheck != nil {
		for _, err := range fx.postCheck() {
			fails.add(err)
			res.Failed++
		}
		res.Attempted++
	}
	res.Correct = res.Failed == 0
	printMetrics(res, cfg.trace)
	return res, nil
}

// runTimed is the untraced timed phase: five rounds of the workload's
// pinned op count; every time-based metric is computed per round and
// reported as the median of the rounds, so one burst of interference
// moves at most one round. The exception is the tail percentile, taken
// over all ops of the run: a round of a bulk workload has 14-30 ops,
// too few to place a p75, and the median of five such estimates spreads
// half again as wide from run to run as the pooled one. Counts are run
// totals.
func runTimed(cfg config, w *workload, fx *fixture, fails *failures, res *result) {
	var inf0, srv0 int64
	if fx.amplification != nil {
		inf0, srv0 = fx.amplification()
	}
	perClient := w.roundOps(cfg.seconds)
	tailQ := float64(w.tailPct) / 100
	var mbps, p50, first, cpu, all []float64
	var timed float64
	fmt.Printf("round   ops   out_mbps  op_p50_ms  op_p%d_ms  first_byte_p50_ms  cpu_s_per_gb\n", w.tailPct)
	for i := 0; i < rounds; i++ {
		r := runOps(fx, perClient, nil, fails)
		res.count(r)
		timed += r.wall
		if len(r.durs) == 0 {
			continue
		}
		all = append(all, r.durs...)
		mbps = append(mbps, r.outMBps())
		p50 = append(p50, quantile(r.durs, 0.5))
		first = append(first, quantile(r.firsts, 0.5))
		cpu = append(cpu, r.cpuPerGB())
		n := len(mbps) - 1
		fmt.Printf("%5d %5d %10.2f %10.3f %10.3f %18.3f %13.4f\n", i+1, len(r.durs), mbps[n], p50[n], quantile(r.durs, tailQ), first[n], cpu[n])
	}
	fmt.Printf("timed phase: %.1f s, %d ops (%d beyond the p%d)\n", timed, len(all), len(all)*(100-w.tailPct)/100, w.tailPct)
	amp := 1.0
	if fx.amplification != nil {
		inf1, srv1 := fx.amplification()
		amp = float64(inf1-inf0) / float64(max(srv1-srv0, 1))
	}
	res.set("out_mbps", median(mbps))
	res.set("op_p50_ms", median(p50))
	res.set("op_tail_ms", quantile(all, tailQ))
	res.set("first_byte_p50_ms", median(first))
	res.set("cpu_s_per_gb", median(cpu))
	res.set("inflated_per_served", amp)
}

func printMetrics(res *result, traced bool) {
	spec := endToEnd
	if traced {
		spec = perLayer
	}
	for _, m := range spec {
		v, ok := res.Metrics[m.name]
		if !ok {
			continue
		}
		fmt.Printf("metric %-30s %14.4f %-9s (%s is better)\n", m.name, v.Value, v.Unit, m.better)
	}
	fmt.Printf("ops attempted %d, failed %d\n", res.Attempted, res.Failed)
}
