package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// testCells shrinks every workload so the test runs each code path in
// seconds; it is large enough that the clustered flows shape clusters.
const testCells = 3000

// benchmarkSpec is the part of BENCHMARK.json the program must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}

// TestWorkloadPaths runs every workload's code path untraced and traced on
// a small design: the results must pass the correctness gate, the traced
// replica must reproduce the flow's fingerprint, the layer self times must
// add up to the traced total, and every metric BENCHMARK.json names must be
// emitted with its unit.
func TestWorkloadPaths(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		w := w
		w.cells = testCells
		t.Run(w.name, func(t *testing.T) {
			rep := &report{}
			if err := measure(w, 1, 0, rep); err != nil {
				t.Fatal(err)
			}
			assertResult(t, rep, 1)
			for _, m := range spec.EndToEnd {
				assertMetric(t, rep, m.Name, m.Unit)
			}

			rep = &report{Env: environment{Trace: true}}
			if err := measureTraced(w, 1, rep); err != nil {
				t.Fatal(err)
			}
			assertResult(t, rep, 2)
			for _, m := range spec.PerLayer {
				assertMetric(t, rep, m.Name, m.Unit)
			}
			var sum float64
			for _, l := range rep.Layers {
				sum += l.Self
				name := l.Name + "_s"
				if l.Name == "flow" {
					name = "trace.unattributed_s"
				}
				if m, ok := rep.Result.Metrics[name]; !ok || m.Value != l.Self {
					t.Errorf("layer %s self time %v is not reported as %s", l.Name, l.Self, name)
				}
			}
			total := rep.Result.Metrics["trace.total_s"].Value
			if math.Abs(sum-total) > 1e-9*total {
				t.Errorf("layer self times + unattributed = %v, traced total = %v", sum, total)
			}
		})
	}
}

func assertResult(t *testing.T, rep *report, attempted int) {
	t.Helper()
	r := rep.Result
	if !r.Correct || r.Failed != 0 || r.Attempted != attempted {
		t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", r.Correct, r.Attempted, r.Failed, rep.Errors)
	}
}

func assertMetric(t *testing.T, rep *report, name, unit string) {
	t.Helper()
	m, ok := rep.Result.Metrics[name]
	if !ok {
		t.Errorf("metric %s not emitted", name)
		return
	}
	if m.Unit != unit {
		t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
	}
}

func TestLayersSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "flow", Parent: -1, Start: 0, End: 10},
		{Name: "a", Parent: 0, Start: 1, End: 4},
		{Name: "b", Parent: 1, Start: 2, End: 3},
		{Name: "a", Parent: 0, Start: 5, End: 6},
		{Name: "setup", Parent: -1, Start: 10, End: 12},
	}}
	got := map[string]layerRow{}
	for _, l := range tr.layers(0) {
		got[l.Name] = l
	}
	want := map[string]layerRow{
		"flow": {"flow", 1, 6},
		"a":    {"a", 2, 3},
		"b":    {"b", 1, 1},
	}
	if len(got) != len(want) {
		t.Fatalf("layers = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("layer %s = %+v, want %+v", k, got[k], v)
		}
	}
}
