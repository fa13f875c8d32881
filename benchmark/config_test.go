package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkFile is the shape of the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricSpec
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by the program", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, program has %d", names, len(workloads))
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program prints %d", len(bf.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range bf.EndToEnd {
		if m.metricSpec != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, program prints %+v", i, m.metricSpec, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program prints %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, program prints %+v", i, m, perLayer[i])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	v = []float64{3, 1, 2}
	sort.Float64s(v)
	if q1, q2, q3 = quartiles(v); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Fatalf("quartiles = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}
