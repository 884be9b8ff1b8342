package main

import (
	"regexp"
	"slices"
	"testing"
)

func testConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 1, seconds: 0.5, trace: trace, scale: 16, dir: t.TempDir(), threads: 2}
}

// TestSpecMatchesBenchmarkJSON holds the names, units and directions the
// program prints equal to the ones ../BENCHMARK.json declares, and the
// file inside the limits of the driver's contract.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec(".")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	var got []string
	for _, w := range spec.Workloads {
		checkName(w.Name)
		got = append(got, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !slices.Equal(got, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, workloadNames())
	}

	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program prints %d", len(spec.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range spec.EndToEnd {
		checkName(m.Name)
		if want := (metricSpec{m.Name, m.Unit, m.Better}); want != endToEnd[i] {
			t.Errorf("end_to_end[%d] is %v, program has %v", i, want, endToEnd[i])
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		checkName(m.Name)
		if want := (metricSpec{m.Name, m.Unit, m.Better}); want != perLayer[i] {
			t.Errorf("per_layer[%d] is %v, program has %v", i, want, perLayer[i])
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
	}
	if !slices.Equal(spec.Paths, []string{"benchmark"}) || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
}

func metricNames(res *result) []string {
	var names []string
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

func specNames(table []metricSpec) []string {
	var names []string
	for _, m := range table {
		names = append(names, m.name)
	}
	slices.Sort(names)
	return names
}

// TestWorkloadsAtSmallScale runs every workload on 1/16 corpora (2 MiB of
// reads, the least the ladder climbs): no op
// fails, and the metrics printed are exactly the end-to-end set, none 0.
func TestWorkloadsAtSmallScale(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res, err := run(testConfig(t, w.name, false), w)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
			}
			if got, want := metricNames(res), specNames(endToEnd); !slices.Equal(got, want) {
				t.Errorf("printed %v, want %v", got, want)
			}
			for n, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v", n, m.Value)
				}
			}
		})
	}
}

// TestTraceEmitsEveryLayer: a traced run prints exactly the per-layer
// set and every rung's output matches the oracle.
func TestTraceEmitsEveryLayer(t *testing.T) {
	w := findWorkload("serve_ranges")
	res, err := run(testConfig(t, w.name, true), w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct %v, failed %d of %d", res.Correct, res.Failed, res.Attempted)
	}
	if got, want := metricNames(res), specNames(perLayer); !slices.Equal(got, want) {
		t.Errorf("printed %v, want %v", got, want)
	}
}

// TestFlippedByteIsAFailedOp: one flipped compressed byte must show up
// as a counted failed op on every whole-stream workload, never as a
// passing run. An index build checks no content itself; the comparison
// with the first build's blob and the read-through after the timed phase
// do.
func TestFlippedByteIsAFailedOp(t *testing.T) {
	for _, name := range []string{"bulk_seq", "bulk_par", "index_build"} {
		t.Run(name, func(t *testing.T) {
			w := findWorkload(name)
			fx, err := w.setup(testConfig(t, name, false))
			if err != nil {
				t.Fatal(err)
			}
			defer fx.close()
			if r := runOps(fx, 1, nil, &failures{}); r.failed != 0 {
				t.Fatalf("intact corpus: %d of %d ops failed", r.failed, r.attempted)
			}
			gz := fx.corpora[0].gz
			gz[len(gz)/2] ^= 0x10
			r := runOps(fx, 1, nil, &failures{})
			failed := r.failed
			if fx.postCheck != nil {
				failed += len(fx.postCheck())
			}
			if r.attempted != 1 || failed < 1 {
				t.Errorf("flipped byte: attempted %d, failed %d; want 1 and at least 1", r.attempted, failed)
			}
		})
	}
}
