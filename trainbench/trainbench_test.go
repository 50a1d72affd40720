package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/distrun"
)

// The launcher re-executes the running binary once per rank; under go test
// that binary is the test binary, so it must serve the rank role too.
func TestMain(m *testing.M) {
	if cfg := os.Getenv(rankEnv); cfg != "" {
		os.Exit(rankMain(cfg))
	}
	os.Exit(m.Run())
}

// shortWorkload is a named workload cut to a few steps, so one trial is quick.
func shortWorkload(t *testing.T, name string, steps int) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	spec := w.spec
	w.spec = func(seed uint64) distrun.JobSpec {
		s := spec(seed)
		s.Steps = steps
		return s
	}
	return w
}

// A job whose output differs from the reference must be counted as failed
// steps, not reported as a result: one rank trains from another seed, and
// the run reports every attempted step failed.
func TestPerturbedRankCountsAsFailedSteps(t *testing.T) {
	t.Chdir(t.TempDir())
	w := shortWorkload(t, "tcp-pp2-wide", 3)

	good, err := run(options{workload: w, seed: 1}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !good.Correct || good.Attempted != 3 || good.Failed != 0 {
		t.Fatalf("unperturbed run: correct=%v attempted=%d failed=%d, want true 3 0", good.Correct, good.Attempted, good.Failed)
	}
	if good.Metrics["samples_per_s"].Value <= 0 {
		t.Fatalf("unperturbed run reported samples_per_s %v", good.Metrics["samples_per_s"])
	}

	bad, err := run(options{workload: w, seed: 1, perturbSeed: 2}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Correct || bad.Attempted != 3 || bad.Failed != 3 {
		t.Fatalf("perturbed run: correct=%v attempted=%d failed=%d, want false 3 3", bad.Correct, bad.Attempted, bad.Failed)
	}
}

// A checkpointing workload runs every job in a fresh directory, so a second
// trial does not resume from the first one's checkpoint and both pass the
// step-count and bit-identity checks.
func TestCheckpointTrialsStartFresh(t *testing.T) {
	w := shortWorkload(t, "tcp-dp2-zero1-ckpt", 11)
	spec := w.spec(1)
	work := t.TempDir()
	ref, err := reference(w, spec, filepath.Join(work, "reference"))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 2; n++ {
		tr := runTrial(w, spec, n, false, 0, work)
		if err := tr.check(ref, spec); err != nil {
			t.Fatalf("trial %d: %v\n%s", n, err, tr.stderr)
		}
	}
}

// The traced run reports every per-layer metric.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	t.Chdir(t.TempDir())
	w := shortWorkload(t, "inproc-dpxpp-narrow", 5)
	res, err := run(options{workload: w, seed: 1, trace: true}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
	}
	for _, m := range layerMetrics {
		if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
			t.Errorf("metric %s = %+v, %v; want unit %s", m.name, got, ok, m.unit)
		}
	}
	if len(res.Metrics) != len(layerMetrics) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(layerMetrics))
	}
	if res.Metrics["interp.seg_ms_per_step"].Value <= 0 || res.Metrics["runtime.instrs_per_step"].Value <= 0 {
		t.Errorf("segment time %v, instructions %v: want both positive",
			res.Metrics["interp.seg_ms_per_step"], res.Metrics["runtime.instrs_per_step"])
	}
}

// BENCHMARK.json at the repository root names the workloads and metrics this
// program runs and prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var doc struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		doc  []named
		prog []metricName
	}{{doc.EndToEnd, endToEndMetrics}, {doc.PerLayer, layerMetrics}} {
		if len(c.doc) != len(c.prog) {
			t.Errorf("BENCHMARK.json has %d metrics, the program %d", len(c.doc), len(c.prog))
			continue
		}
		for i, m := range c.doc {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}
