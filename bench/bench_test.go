package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rollup"
)

const specFile = "../BENCHMARK.json"

// toySizes keeps this test of the harness itself fast: every workload
// in well under a second.
func toySizes() sizes {
	return sizes{name: "toy", simSessions: 200, replaySession: 200, distSessions: 150,
		storeSessions: 200, queryBlock: 2, querySpecs: 2, analysisIDs: []string{"fig2", "fig3", "fig8"},
		setups: 1, minReps: 1}
}

func toyOptions(t *testing.T, trace bool) options {
	t.Helper()
	return options{seed: 7, budget: 20 * time.Millisecond, trace: trace, size: toySizes(), dir: t.TempDir()}
}

func mustSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSpecShape holds BENCHMARK.json to the limits its consumers
// enforce: name grammar, unit presence, list sizes, one bound per
// end-to-end metric, and a workload list equal to the program's.
func TestSpecShape(t *testing.T) {
	sp := mustSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range append(append([]specMetric{}, sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q (unit %q) breaks the name or unit grammar", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range sp.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at toy size,
// untraced and traced, and checks the printed result: exactly the
// declared names, finite values, units attached, no failed operation.
// The traced runs passing their byte-identity checks (against
// references the untraced set-up produced) is also the end-to-end proof
// that the wrappers do not change the program.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	sp := mustSpec(t)
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := toyOptions(t, trace)
			res, err := drive(name, newWorkload(name, o), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d/%d ops failed: %v", name, trace, res.Failed, res.Attempted, res.Failures)
			}
			declared := sp.EndToEnd
			if trace {
				declared = sp.PerLayer
			}
			var out bytes.Buffer
			if err := report(&out, res, declared); err != nil {
				t.Errorf("%s trace=%v: %v", name, trace, err)
				continue
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line contractLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result object: %v", name, trace, err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: result %+v, want correct with %d metrics", name, trace, line, len(declared))
			}
			for _, m := range declared {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want a finite value in %s", name, trace, m.Name, got, ok, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptOutputIsAFailedOp injects one corruption per workload just
// before verification: it must surface as ops_failed, never as a pass.
func TestCorruptOutputIsAFailedOp(t *testing.T) {
	for _, name := range workloadNames {
		o := toyOptions(t, false)
		o.tamper = true
		res, err := drive(name, newWorkload(name, o), o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed == 0 {
			t.Errorf("%s: corrupted output verified clean (%d ops attempted)", name, res.Attempted)
		}
		var out bytes.Buffer
		if err := report(&out, res, nil); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), `"correct":false`) {
			t.Errorf("%s: result line does not say correct=false:\n%s", name, out.String())
		}
	}
}

// TestWrappersAreTransparent runs one capture job bare and one with the
// source and sink wrappers on: same snapshot bytes, and the wrappers'
// exact counts agree with the layers' own counters.
func TestWrappersAreTransparent(t *testing.T) {
	w := newWorld()
	snapshot := func(tr *tracer) ([]byte, captureStats) {
		sim, err := w.simulator(300, 5, 0, w.weekBins)
		if err != nil {
			t.Fatal(err)
		}
		part, st, err := w.run(captureJob{src: sim.Stream(), cells: sim.Cells, from: 0, to: w.weekBins,
			shards: 2, reg: obs.NewRegistry(), srcLayer: "gtpsim.next"}, tr)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rollup.WriteV2(&buf, part); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), st
	}
	bare, _ := snapshot(nil)
	tr := newTracer()
	traced, st := snapshot(tr)
	if !bytes.Equal(bare, traced) {
		t.Fatalf("snapshot with wrappers on (%s) differs from the bare run's (%s)", digest(traced), digest(bare))
	}
	totals := tr.endRep()
	if got := totals["gtpsim.next"].count; got != st.frames {
		t.Errorf("source wrapper saw %v crossings, CountingSource %v frames", got, st.frames)
	}
	if got := totals["gtpsim.next"].bytes; got != st.bytes {
		t.Errorf("source wrapper saw %v bytes, CountingSource %v", got, st.bytes)
	}
	if totals["rollup.observe"].count == 0 || totals["gtpsim.next"].busyS <= 0 {
		t.Errorf("boundary layers recorded nothing: %+v", totals)
	}
	if len(tr.spans) < 4 {
		t.Errorf("want pipeline.run, rollup.finish and two boundary spans, got %+v", tr.spans)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1.0, 2.0, 4.0], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v, %v, want 1, 4", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	bound := 0.05
	lower := specMetric{Name: "wall_s", Better: "lower", Bound: &bound}
	higher := specMetric{Name: "queries_per_s", Better: "higher", Bound: &bound}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.005}
	for _, tc := range []struct {
		name string
		m    specMetric
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "unchanged"},
		{"slower", lower, steady, []float64{1.10, 1.11, 1.09, 1.10, 1.10}, "regressed"},
		{"faster", lower, steady, []float64{0.90, 0.91, 0.89, 0.90, 0.90}, "improved"},
		{"less throughput", higher, steady, []float64{0.90, 0.91, 0.89, 0.90, 0.90}, "regressed"},
		{"within bound", lower, steady, []float64{1.03, 1.02, 1.03, 1.04, 1.03}, "unchanged"},
		{"too noisy", lower, []float64{0.8, 1.0, 1.2, 0.9, 1.1}, []float64{0.85, 1.05, 1.25, 0.95, 1.15}, "unresolved"},
		{"noisy but disjoint", lower, []float64{1.8, 2.0, 2.2, 1.9, 2.1}, []float64{0.8, 1.0, 1.2, 0.9, 1.1}, "improved"},
	} {
		if _, got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}

	sp := &spec{EndToEnd: []specMetric{lower}}
	runs := func(wall float64, failed int) []*runResult {
		return []*runResult{{Workload: "local-sim", Attempted: 10, Failed: failed, Metrics: map[string]float64{"wall_s": wall}}}
	}
	if _, bad := compareSets(sp, runs(1, 0), runs(1.01, 0)); bad {
		t.Error("a 1% change within a 5% bound must not fail the comparison")
	}
	if _, bad := compareSets(sp, runs(1, 0), runs(1.2, 0)); !bad {
		t.Error("a 20% regression must fail the comparison")
	}
	if rows, bad := compareSets(sp, runs(1, 0), runs(1, 1)); !bad {
		t.Errorf("a higher failure ratio must fail the comparison: %v", rows)
	}
}

// TestCommandLine drives the program the way the benchmark driver does.
func TestCommandLine(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"--workload", "store-build", "--seed", "3", "--seconds", "0.02", "--trace", "0",
		"-spec", specFile, "-workdir", t.TempDir()}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[key]; !ok {
			t.Errorf("result object lacks %q", key)
		}
	}
	if len(line) != 4 {
		t.Errorf("result object has %d keys, want exactly 4", len(line))
	}
	// Without its description the benchmark must refuse to run.
	if code := run([]string{"-workload", "store-build", "-spec", "no-such.json"}, &out, &errb); code == 0 {
		t.Error("ran without BENCHMARK.json")
	}
	if code := run([]string{"-workload", "nope", "-spec", specFile}, &out, &errb); code == 0 {
		t.Error("accepted an unknown workload")
	}
}
