package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists and
// workloads in step with what the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		Name, Unit string
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, x := range bench.EndToEnd {
		e2e = append(e2e, x.Name)
	}
	want := append([]string(nil), e2eMetrics...)
	sort.Strings(e2e)
	sort.Strings(want)
	if len(e2e) != len(want) {
		t.Fatalf("end_to_end %v, program reports %v", e2e, want)
	}
	for i := range e2e {
		if e2e[i] != want[i] {
			t.Fatalf("end_to_end %v, program reports %v", e2e, want)
		}
	}
	if len(bench.PerLayer) != len(layerMetrics) {
		t.Errorf("per_layer lists %d metrics, program reports %d", len(bench.PerLayer), len(layerMetrics))
	}
	for _, x := range bench.PerLayer {
		if u, ok := layerMetrics[x.Name]; !ok || u != x.Unit {
			t.Errorf("per_layer %s (%s): program reports unit %q", x.Name, x.Unit, u)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, program has %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %s, program has %s", i, w.Name, workloads[i].name)
		}
	}
}
