package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the output must match.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func sameMetrics(t *testing.T, kind string, want []struct{ Name, Unit string }, got map[string]metric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: computed %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: %s listed but not computed", kind, w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("%s: %s in %s, listed in %s", kind, w.Name, m.Unit, w.Unit)
		}
	}
}

func TestPerLayerMetricsMatchBenchmarkFile(t *testing.T) {
	// With no spans every metric still exists: a bypassed layer reads 0.
	sameMetrics(t, "per_layer", loadBenchmarkFile(t).PerLayer, layerMetrics(nil, nil, 0))
}

func TestEndToEndMetricsMatchBenchmarkFile(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a trace")
	}
	w, err := lookup("nu-pcap")
	if err != nil {
		t.Fatal(err)
	}
	in, err := makeInput(w, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := reference(w, in)
	if err != nil {
		t.Fatal(err)
	}
	g := &gate{ref: ref}
	m, passes, err := timedRun(w, in, g, time.Nanosecond, &info{})
	if err != nil {
		t.Fatal(err)
	}
	if passes != 1 || !g.ok() || g.attempted != len(ref) {
		t.Fatalf("%d passes, gate ok=%v, %d of %d intervals attempted", passes, g.ok(), g.attempted, len(ref))
	}
	sameMetrics(t, "end_to_end", loadBenchmarkFile(t).EndToEnd, m)
	for name, v := range m {
		if v.Value <= 0 {
			t.Errorf("%s = %v, want a positive value", name, v.Value)
		}
	}
}
