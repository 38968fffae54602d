package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// toyRun runs a workload at smoke-test scale.
func toyRun(t *testing.T, w workload, trace bool) result {
	t.Helper()
	o, err := w.run(runConfig{seed: 1, seconds: 2, trace: trace, toy: true})
	if err != nil {
		t.Fatalf("%s (trace %t): %v", w.name, trace, err)
	}
	for _, n := range o.notes {
		t.Log(n)
	}
	return buildResult(o, trace)
}

// TestSmoke runs every workload, untraced and traced, at toy scale and
// checks the result line: outputs verified, every metric of the mode
// printed with its unit, every metric the workload measures read (above 0
// unless 0 is a legitimate reading), every other one 0, and every name and
// unit well formed.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			r := toyRun(t, w, trace)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s (trace %t): correct %t, %d of %d failed", w.name, trace, r.Correct, r.Failed, r.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s (trace %t): %d metrics, want %d", w.name, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				got, ok := r.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s (trace %t): metric %s missing", w.name, trace, d.name)
				case got.Unit != d.unit:
					t.Errorf("%s: metric %s has unit %q, want %q", w.name, d.name, got.Unit, d.unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s is %v", w.name, d.name, got.Value)
				case !d.measures(w.name) && got.Value != 0:
					t.Errorf("%s: metric %s is not measured on it but reads %v", w.name, d.name, got.Value)
				case d.measures(w.name) && mayReadZero[d.name] && got.Value < 0:
					t.Errorf("%s: metric %s is %v, want >= 0", w.name, d.name, got.Value)
				case d.measures(w.name) && !mayReadZero[d.name] && got.Value <= 0:
					t.Errorf("%s: metric %s is %v, want > 0", w.name, d.name, got.Value)
				}
			}
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 {
				t.Errorf("%s: result has keys %v, want correct, attempted, failed, metrics", w.name, keys)
			}
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q unit %q: malformed", d.name, d.unit)
		}
	}
}

// TestCorruptDigestCaught records a wrong digest for the seed and expects
// every workload's run to fail its output check.
func TestCorruptDigestCaught(t *testing.T) {
	for _, w := range workloads {
		saved := toyDigests[w.name]
		zero := strings.Repeat("0", 64)
		corrupt := make([]string, revisitStudies)
		for i := range corrupt {
			corrupt[i] = zero
		}
		toyDigests[w.name] = map[int64][]string{1: corrupt}
		r := toyRun(t, w, false)
		toyDigests[w.name] = saved
		if r.Correct || r.Failed == 0 {
			t.Errorf("%s: corrupted digest not caught (correct %t, failed %d)", w.name, r.Correct, r.Failed)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics the program runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: %q, want %q with a reason", i, w.Name, workloads[i].name)
		}
	}
	for _, set := range []struct {
		declared []struct{ Name, Unit string }
		defs     []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(set.declared) != len(set.defs) {
			t.Errorf("BENCHMARK.json declares %d metrics, the program prints %d", len(set.declared), len(set.defs))
			continue
		}
		for i, d := range set.declared {
			if d.Name != set.defs[i].name || d.Unit != set.defs[i].unit {
				t.Errorf("metric %d: declared %s [%s], printed %s [%s]", i, d.Name, d.Unit, set.defs[i].name, set.defs[i].unit)
			}
		}
	}
}
