package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// runAA measures the box's noise: for the workload named by -workload,
// or else for each one, it runs two interleaved sets of n runs of this
// same binary (A B A B ...), all on the one -seed, so that the inputs
// and the requests are identical and only the box differs between runs.
// It prints each end-to-end metric's median and quartiles per set, the
// spread of each set (distance between its quartiles over its median)
// and the gap between the two medians, and fails if a gap exceeds the
// metric's bound in BENCHMARK.json or a spread other than setup_s's
// exceeds it. The report is Markdown; the builder's copy is AA.md.
func runAA(cfg config, n int) int {
	spec, err := loadSpec(cfg.dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pugzbench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pugzbench:", err)
		return 1
	}
	names := workloadNames()
	if cfg.workload != "" {
		if findWorkload(cfg.workload) == nil {
			fmt.Fprintf(os.Stderr, "pugzbench: no workload %q\n", cfg.workload)
			return 2
		}
		names = []string{cfg.workload}
	}
	env := envStamp(cfg)
	fmt.Printf("# A/A: two interleaved sets of %d runs per workload, seed %d, %g s nominal each\n\n", n, cfg.seed, cfg.seconds)
	fmt.Printf("`%s`, %s threads on %s cores, %s, commit %s, loadavg at start %s\n\n",
		env["cpu"], env["threads"], env["nproc"], env["go"], env["commit"], env["loadavg"])
	bad := 0
	for _, w := range names {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < n; i++ {
			for s := range sets {
				res, err := runChild(self, cfg, w, fmt.Sprintf("%c%d", "AB"[s], i+1))
				if err != nil {
					fmt.Fprintf(os.Stderr, "pugzbench: %s run %d: %v\n", w, i+1, err)
					return 1
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Printf("## %s\n\n", w)
		fmt.Println("| metric | unit | A median [q1, q3] | B median [q1, q3] | spread A | spread B | gap B vs A | bound | |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|")
		for _, m := range spec.EndToEnd {
			a1, a2, a3 := quartiles(sets[0][m.Name])
			b1, b2, b3 := quartiles(sets[1][m.Name])
			gap := (b2 - a2) / a2 // how much worse B's median is than A's
			if m.Better == "higher" {
				gap = -gap
			}
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			verdict := "ok"
			if gap > m.Bound || (m.Name != "setup_s" && max(spreadA, spreadB) > m.Bound) {
				verdict = "**over**"
				bad++
			}
			fmt.Printf("| %s | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %.1f%% | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				m.Name, m.Unit, a2, a1, a3, b2, b1, b3, 100*spreadA, 100*spreadB, 100*gap, 100*m.Bound, verdict)
		}
		fmt.Print("\nEvery run, in order:\n\n")
		fmt.Println("| metric | set | values |")
		fmt.Println("|---|---|---|")
		for _, m := range spec.EndToEnd {
			for s, label := range []string{"A", "B"} {
				var vals []string
				for _, v := range sets[s][m.Name] {
					vals = append(vals, fmt.Sprintf("%.4g", v))
				}
				fmt.Printf("| %s | %s | %s |\n", m.Name, label, strings.Join(vals, " "))
			}
		}
		fmt.Println()
	}
	if bad > 0 {
		fmt.Printf("%d metric(s) over their bound\n", bad)
		return 1
	}
	fmt.Println("every gap and spread is within its bound")
	return 0
}

// runChild runs one untraced run in a fresh process, so that no run
// inherits another's heap, keeps its full output under out/, and parses
// the result line.
func runChild(self string, cfg config, workload, label string) (*result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-dir", cfg.dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.tmpRoot(), 0o755); err != nil {
		return nil, err
	}
	log := filepath.Join(cfg.tmpRoot(), fmt.Sprintf("aa-%s-%s.txt", workload, label))
	if err := os.WriteFile(log, out, 0o644); err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}
