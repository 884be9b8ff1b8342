package experiments

import (
	"strings"
	"testing"
	"time"

	pugz "repro"
	"repro/baseline"
	"repro/internal/deflate"
	"repro/internal/dna"
	"repro/internal/fastq"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Scale != 1 || c.Threads != 32 {
		t.Fatalf("defaults: %+v", c)
	}
	c = Config{Scale: 2.5, Threads: 8}.WithDefaults()
	if c.Scale != 2.5 || c.Threads != 8 {
		t.Fatalf("explicit values overridden: %+v", c)
	}
	if got := c.scaled(100); got != 250 {
		t.Fatalf("scaled(100) = %d", got)
	}
	if got := (Config{Scale: 0.0001}).WithDefaults().scaled(100); got != 1 {
		t.Fatalf("scaled floor: %d", got)
	}
}

func TestAllExperimentsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Paper == "" || e.Desc == "" || e.Run == nil {
			t.Fatalf("incomplete experiment: %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
		got, ok := Lookup(e.ID)
		if !ok || got.ID != e.ID {
			t.Fatalf("Lookup(%q) failed", e.ID)
		}
	}
	if _, ok := Lookup("nonexistent"); ok {
		t.Fatal("Lookup accepted unknown id")
	}
	// The suite must cover every table and figure of the paper.
	for _, want := range []string{"fig1", "fig2top", "fig2bottom", "table1", "table2", "fig4", "fig5", "model", "blockdetect", "baselines"} {
		if !seen[want] {
			t.Fatalf("experiment %q missing", want)
		}
	}
}

func TestMeasureTokenStats(t *testing.T) {
	data := dna.Random(300_000, 1)
	payload, err := deflate.Compress(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	oa, la, err := measureTokenStats(payload)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's level-6 numbers on random DNA: o_a ≈ 3602, l_a ≈ 7.6.
	if oa < 2500 || oa > 5000 {
		t.Errorf("o_a = %.0f, expected ≈3600", oa)
	}
	if la < 5.5 || la > 9 {
		t.Errorf("l_a = %.2f, expected ≈7", la)
	}
}

func TestLiteralFraction(t *testing.T) {
	data := dna.Random(300_000, 2)
	p1, err := deflate.Compress(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := literalFractionAfterFirstWindow(p1)
	if err != nil {
		t.Fatal(err)
	}
	if f1 > 0.001 {
		t.Errorf("greedy literal fraction %.5f, want ~0", f1)
	}
	p6, err := deflate.Compress(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	f6, err := literalFractionAfterFirstWindow(p6)
	if err != nil {
		t.Fatal(err)
	}
	if f6 < 0.02 || f6 > 0.08 {
		t.Errorf("lazy literal fraction %.4f, want ≈0.04", f6)
	}
}

func TestFig2CurveShape(t *testing.T) {
	data := dna.Random(400_000, 3)
	s, err := fig2Curve(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Fracs) < 20 {
		t.Fatalf("only %d windows", len(s.Fracs))
	}
	// Monotone-ish decay: the last quarter must be far below the first.
	firstQ, lastQ := 0.0, 0.0
	q := len(s.Fracs) / 4
	for i := 0; i < q; i++ {
		firstQ += s.Fracs[i]
		lastQ += s.Fracs[len(s.Fracs)-1-i]
	}
	if lastQ >= firstQ/4 {
		t.Errorf("no decay: first quarter %.2f, last quarter %.2f", firstQ, lastQ)
	}

	// Level 1 (greedy): no decay at all.
	s1, err := fig2Curve(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s1.VanishIdx != -1 {
		t.Errorf("level 1 vanished at %d; greedy starvation should prevent resolution", s1.VanishIdx)
	}
	tail := s1.Fracs[len(s1.Fracs)-1]
	if tail < 0.95 {
		t.Errorf("level 1 tail fraction %.3f, want ≈1", tail)
	}
}

func TestDownsample(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	ds := downsample(xs, 100)
	if len(ds) != 100 {
		t.Fatalf("len %d", len(ds))
	}
	if ds[0] != 0 || ds[99] < 900 {
		t.Fatalf("range: first %.0f last %.0f", ds[0], ds[99])
	}
	short := []float64{1, 2, 3}
	if got := downsample(short, 100); len(got) != 3 {
		t.Fatal("short input must pass through")
	}
}

func TestTable1CorpusClasses(t *testing.T) {
	files, err := buildTable1Corpus(Config{Scale: 0.02}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 7 {
		t.Fatalf("%d files", len(files))
	}
	levels := map[int]int{}
	for _, f := range files {
		levels[f.level]++
		if len(f.gz) == 0 || f.raw == 0 {
			t.Fatal("empty file")
		}
	}
	if levels[1] != 2 || levels[6] != 3 || levels[9] != 2 {
		t.Fatalf("level mix: %v", levels)
	}
}

// TestCostModel checks Table II's cost model on a Sequential run: work
// and makespan are positive, the makespan without sync is no longer
// than with it, and neither exceeds the summed work.
func TestCostModel(t *testing.T) {
	gz, err := baseline.Compress(fastq.Generate(fastq.GenOptions{Reads: 6000, Seed: 9}), 6)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := pugz.Decompress(gz, pugz.Options{Threads: 4, MinChunk: 8 << 10, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	work := time.Duration(workSeconds(st) * float64(time.Second))
	withSync, noSync := simulatedMakespan(st, true), simulatedMakespan(st, false)
	if work <= 0 || noSync <= 0 {
		t.Fatalf("work %v, makespan without sync %v: want both positive", work, noSync)
	}
	if noSync > withSync || withSync > work+st.Pass2SeqWall+time.Microsecond { // slack for the float round trip
		t.Fatalf("makespan %v (no sync %v) out of order against work %v + resolve %v", withSync, noSync, work, st.Pass2SeqWall)
	}
}

func TestHeaderHelper(t *testing.T) {
	var sb strings.Builder
	header(&sb, "X")
	if !strings.Contains(sb.String(), "=== X ===") {
		t.Fatalf("got %q", sb.String())
	}
}
