package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

// BENCHMARK.json must describe exactly the workloads and metrics the
// command runs and prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the command prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if b.EndToEnd[i] != m {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, command %+v", i, b.EndToEnd[i], m)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the command prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if b.PerLayer[i] != m {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, command %+v", i, b.PerLayer[i], m)
		}
	}
}

// The profile decoder reads a real CPU profile and accounts for its time.
func TestLayerCPUDecodesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x++
	}
	pprof.StopCPUProfile()
	split, err := layerCPU(buf.Bytes(), "run")
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for layer, s := range split {
		if layer != "other" && layer != "gc" {
			t.Errorf("test code charged to layer %q", layer)
		}
		total += s
	}
	if total < 0.1 {
		t.Errorf("decoded %.3f s of CPU from a 0.3 s busy loop (x=%d)", total, x)
	}
}
