// Package experiments regenerates every table and figure of the
// paper's evaluation (All is the index). Each
// experiment is a function from a Config to a printable, structured
// result, so the same code backs cmd/experiments and the benchmark
// suite in bench_test.go.
//
// Scale: the paper's corpus is 192.8 GB of ENA FASTQ; this harness
// regenerates the same *shapes* from seeded synthetic corpora sized
// megabytes (Config.Scale multiplies the defaults).
package experiments

import (
	"fmt"
	"io"
)

// Config scales and seeds the whole suite.
type Config struct {
	// Scale multiplies corpus sizes; 1.0 is the fast default
	// (seconds-to-minutes per experiment).
	Scale float64
	// Seed offsets every corpus seed, for variance runs.
	Seed int64
	// Threads caps the thread counts exercised by the speed
	// experiments (default 32, like the paper).
	Threads int
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Threads <= 0 {
		c.Threads = 32
	}
	return c
}

func (c Config) scaled(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// Experiment couples a runnable with its identity.
type Experiment struct {
	ID    string // e.g. "fig2top"
	Paper string // e.g. "Figure 2 (top)"
	Desc  string
	Run   func(c Config, w io.Writer) error
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "Figure 1", "context resolution across blocks after a random access", RunFig1},
		{"fig2top", "Figure 2 (top)", "undetermined characters per window, random DNA, levels 1/4/6/9 + model", RunFig2Top},
		{"fig2bottom", "Figure 2 (bottom)", "undetermined characters per window, FASTQ-like string", RunFig2Bottom},
		{"model", "Section V", "analytical model numbers: p_l, E_l, L_1, measured literal rates", RunModel},
		{"table1", "Table I", "random access to sequences by compression level", RunTable1},
		{"fig4", "Figure 4", "characters copied from the initial context, by type", RunFig4},
		{"table2", "Table II", "decompression speed: gunzip / libdeflate role / pugz", RunTable2},
		{"fig5", "Figure 5", "pugz scaling with thread count vs baselines", RunFig5},
		{"blockdetect", "Section VI-A", "block start detection latency", RunBlockDetect},
		{"baselines", "Section II / VIII", "random-access baselines (zran index, BGZF) and the undetermined-character guesser", RunBaselines},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func header(w io.Writer, e string) {
	fmt.Fprintf(w, "\n=== %s ===\n", e)
}
