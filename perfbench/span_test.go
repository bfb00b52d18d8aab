package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "interval", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "pcap.next", Start: 10, End: 20},
		{ID: 4, Parent: 2, Name: "core.observe", Start: 20, End: 50},
		{ID: 5, Parent: 1, Name: "interval", Start: 60, End: 90},
		{ID: 6, Parent: 5, Name: "core.end_interval", Start: 65, End: 90},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"run":               20, // 100 - (50 + 30)
		"interval":          15, // (50 - 40) + (30 - 25)
		"pcap.next":         10,
		"core.observe":      30,
		"core.end_interval": 25,
	}
	var total time.Duration
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self(%s) = %d, want %d", name, self[name], d)
		}
		total += self[name]
	}
	if total != 100 {
		t.Errorf("self times sum to %d, want the run's 100", total)
	}
}

func TestSelfTimeCountsOverlapOnceAndClips(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 0, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 70},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent
	}
	if got := selfTimes(spans)["run"]; got != 20 {
		t.Fatalf("self(run) = %d, want 100 - |[0,70) ∪ [90,100)| = 20", got)
	}
}

func TestTracerRecordsNestingAndWrites(t *testing.T) {
	tr := newTracer()
	tr.pass = 3
	run := tr.begin(0, "run")
	iv := tr.begin(run, "interval")
	tr.attr(iv, "inference_s", 0.5)
	tr.finish(iv, 7)
	tr.finish(run, 7)
	if len(tr.spans) != 2 || tr.spans[1].Parent != run || tr.spans[1].Pass != 3 || tr.spans[1].Events != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[0].End < tr.spans[1].End {
		t.Fatal("parent ended before its child")
	}
	path := filepath.Join(t.TempDir(), "sub", "spans.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 2 || !strings.Contains(string(data), `"inference_s":0.5`) {
		t.Fatalf("wrote %q", data)
	}
}
