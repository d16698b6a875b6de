package main

// Self-test of the benchmark at a tiny scale: every metric is emitted
// with its unit, names are well formed and match BENCHMARK.json, the
// oracle fails a run fed a corrupted expectation, and the leak check
// fails when an instance is left running.

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.3, trace: trace, setups: 1, tiny: true, outDir: t.TempDir()}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q does not match %s", m.Name, nameRE)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better = %q", m.Name, m.Better)
			}
			if seen[m.Name] {
				t.Errorf("metric %s listed twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, w := range workloadNames() {
		if !nameRE.MatchString(w) {
			t.Errorf("workload name %q does not match %s", w, nameRE)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the catalogue.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := len(names), len(workloads); got != want {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", got, want)
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", n)
		}
	}
	compare := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark reports %+v", kind, i, got[i], want[i])
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}

func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, w, trace)
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w, trace, m.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

func TestOracleFailsCorruptedExpectation(t *testing.T) {
	for _, w := range workloadNames() {
		cfg := tinyConfig(t, w, false)
		cfg.corrupt = true
		res, err := run(cfg, io.Discard)
		if !errors.Is(err, errWrong) {
			t.Errorf("%s: corrupted expectation gave %v, want %v", w, err, errWrong)
		}
		if res != nil && res.Correct {
			t.Errorf("%s: corrupted expectation reported correct", w)
		}
	}
}

func TestLeakCheckFailsOnRunningInstance(t *testing.T) {
	for _, w := range workloadNames() {
		cfg := tinyConfig(t, w, false)
		cfg.leakInstance = true
		res, err := run(cfg, io.Discard)
		if !errors.Is(err, errLeak) {
			t.Errorf("%s: instance left running gave %v, want %v", w, err, errLeak)
		}
		if res != nil && res.Correct {
			t.Errorf("%s: leaked instance reported correct", w)
		}
	}
}
