// Command experiments regenerates the paper's tables and figures from
// seeded synthetic corpora. Run with no flags for the full suite, or
// select one experiment:
//
//	experiments -run table2 -scale 2 -threads 32
//
// Experiment IDs: fig1, fig2top, fig2bottom, model, table1, fig4,
// table2, fig5, blockdetect, baselines (-run list prints each with the
// table or figure it reproduces).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "experiment id to run (or 'all' / 'list')")
	scale := flag.Float64("scale", 1.0, "corpus size multiplier")
	seed := flag.Int64("seed", 0, "seed offset for all corpora")
	threads := flag.Int("threads", 32, "maximum thread count for speed experiments")
	flag.Parse()

	cfg := experiments.Config{Scale: *scale, Seed: *seed, Threads: *threads}

	if *run == "list" {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %-16s %s\n", e.ID, e.Paper, e.Desc)
		}
		return
	}

	var toRun []experiments.Experiment
	if *run == "all" {
		toRun = experiments.All()
	} else {
		e, ok := experiments.Lookup(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -run list\n", *run)
			os.Exit(2)
		}
		toRun = []experiments.Experiment{e}
	}

	for _, e := range toRun {
		t := time.Now()
		if err := e.Run(cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %.1fs]\n", e.ID, time.Since(t).Seconds())
	}
}
