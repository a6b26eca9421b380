package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// The program's metric and workload lists must be exactly the ones
// BENCHMARK.json declares: a run reports every end-to-end metric
// untraced and every per-layer metric traced.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []Metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, EndToEnd)
	same("per_layer", spec.PerLayer, PerLayer)

	var names, programs []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for w := range Workloads {
		programs = append(programs, w)
	}
	sort.Strings(names)
	sort.Strings(programs)
	if len(names) != len(programs) {
		t.Fatalf("workloads: BENCHMARK.json %v, program %v", names, programs)
	}
	for i := range names {
		if names[i] != programs[i] {
			t.Errorf("workloads: BENCHMARK.json %v, program %v", names, programs)
		}
	}

	// Every workload has its record in workloads.json.
	raw, err = os.ReadFile("workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Workloads []struct {
			Name     string
			Stresses []string
			Bypasses []string
			Load     []struct{ Loop string }
		}
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	recorded := map[string]bool{}
	for _, w := range rec.Workloads {
		if len(w.Stresses) == 0 || len(w.Bypasses) == 0 || len(w.Load) == 0 {
			t.Errorf("workloads.json %s lacks stresses, bypasses or load", w.Name)
		}
		recorded[w.Name] = true
	}
	for _, n := range programs {
		if !recorded[n] {
			t.Errorf("workloads.json has no record of %s", n)
		}
	}
}
