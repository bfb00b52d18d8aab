// Command perfbench is HiFIND's end-to-end replay benchmark: it
// generates a seeded trace, replays it through the path an operator
// runs (bytes in, alerts out) for a fixed time, gates every interval's
// alerts against a sequential uncached reference replay of the same
// bytes, and prints the metrics. With -trace 1 it instead interleaves
// untraced passes with traced ones that time each module layer, and
// prints the per-layer metrics and the tracing overhead.
//
//	perfbench -workload nu-pcap -seed 1 -seconds 15 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A run whose alerts fail the
// gate prints correct=false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/hifind/hifind/internal/core"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "trace generator seed")
		seconds = flag.Int("seconds", 10, "how long to measure, in seconds")
		traceOn = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed one")
		spans   = flag.String("spans", filepath.Join(".bench_build", "perfbench", "spans"), "directory the traced run writes its spans to")
	)
	flag.Parse()
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traceOn == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info records what a run measured and where, printed before the result.
type info struct {
	Workload  string      `json:"workload"`
	Why       string      `json:"why"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Traced    bool        `json:"traced"`
	Env       environment `json:"env"`
	Format    string      `json:"input_format"`
	Bytes     int         `json:"input_bytes"`
	Events    int         `json:"events"`
	Generated int         `json:"generated_intervals"`
	Replayed  int         `json:"replayed_intervals"`
	Digest    string      `json:"reference_digest"`
	Alerts    int         `json:"reference_final_alerts"`
	Score     score       `json:"score"`
	Passes    int         `json:"passes"`
	PassEPS   []float64   `json:"pass_throughput_eps,omitempty"`
	Latency   []float64   `json:"interval_latency_ms,omitempty"`
	Attempted int         `json:"attempted_intervals"`
	Failed    int         `json:"failed_intervals"`
	FailRatio float64     `json:"failed_interval_ratio"`
	Tail      *tail       `json:"detect_latency_tail,omitempty"`
	Spans     string      `json:"spans,omitempty"`
}

// gate accumulates the correctness verdict over passes against the
// sequential uncached reference. A gate made without one adopts the
// first pass that completes: on nu-pcap and attack-storm every timed
// pass is itself a sequential uncached replay, so a separate reference
// replay would only repeat it.
type gate struct {
	ref        []string
	refResults []core.IntervalResult
	attempted  int
	failed     int
	errs       []error
}

func (g *gate) check(p pass) {
	if g.ref == nil && p.err == nil {
		g.ref, g.refResults = intervalDigests(p.results), p.results
	}
	g.attempted += max(len(p.results), len(g.ref))
	g.failed += failedIntervals(p.results, g.ref)
	if p.err != nil {
		g.errs = append(g.errs, p.err)
	}
}

func (g *gate) ok() bool { return g.failed == 0 && len(g.errs) == 0 && g.ref != nil }

// selfReferenced reports whether w's timed pass is the sequential
// uncached replay the gate compares against.
func selfReferenced(w workload) bool { return w.mode == sequential && w.cache == 0 }

// timedPass runs one untraced pass of w.
func timedPass(w workload, in input) pass {
	if w.mode == multirouter {
		return multirouterPass(in)
	}
	return facadePass(w, in)
}

func run(name string, seed int64, dur time.Duration, traced bool, spanDir string) (result, error) {
	w, err := lookup(name)
	if err != nil {
		return result{}, err
	}
	in, err := makeInput(w, seed, traceIntervals)
	if err != nil {
		return result{}, fmt.Errorf("generate trace: %w", err)
	}
	g := &gate{}
	if !selfReferenced(w) {
		if g.ref, g.refResults, err = reference(w, in); err != nil {
			return result{}, err
		}
	}
	inf := info{
		Workload: w.name, Why: w.why, Seed: seed, Seconds: dur.Seconds(), Traced: traced,
		Env: currentEnvironment(), Format: "pcap", Bytes: len(in.data), Events: in.events,
		Generated: in.generated,
	}
	if w.netflow {
		inf.Format = "netflow-v5"
	}
	var metrics map[string]metric
	if traced {
		metrics, inf.Passes, err = tracedRun(w, in, g, dur, &inf, spanDir, seed)
	} else {
		metrics, inf.Passes, err = timedRun(w, in, g, dur, &inf)
	}
	if err != nil {
		return result{}, err
	}
	// The digest covers the replayed intervals only, so every workload on
	// the shared nu trace reports the same one; the gate still checks the
	// extra interval a sharded Close adds.
	inf.Replayed = len(g.ref)
	shared := g.ref
	if w.mode == sharded && len(shared) > 0 {
		shared = shared[:len(shared)-1]
	}
	inf.Digest = runDigest(shared)
	for _, r := range g.refResults {
		inf.Alerts += len(r.Final)
	}
	inf.Attempted, inf.Failed = g.attempted, g.failed
	inf.FailRatio = ratio(float64(g.failed), float64(g.attempted))
	for _, e := range g.errs {
		fmt.Fprintln(os.Stderr, "perfbench: pass failed:", e)
	}
	line, err := json.Marshal(inf)
	if err != nil {
		return result{}, err
	}
	fmt.Println(string(line))
	for _, k := range sortedKeys(metrics) {
		fmt.Printf("  %-34s %16.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	return result{Correct: g.ok(), Attempted: g.attempted, Failed: g.failed, Metrics: metrics}, nil
}

// setupTrials is how many extra times a timed run builds and tears
// down the workload's detector before measuring, so setup_s is a median
// even when only one replay pass fits the run.
const setupTrials = 5

// timedRun repeats untraced passes for dur and reports the end-to-end
// metrics. Throughput and latency are read from per-interval medians
// across passes, so a burst of interference on the host costs one
// interval's sample, not a pass: throughput is a pass's events over the
// sum of its intervals' median wall segments, and the latency metrics
// are quantile estimates over the per-interval medians. setup_s is the
// median of every setup. peak_heap_mb is the median over passes of the heap still
// reachable after a pass's last Result, while its detector is alive,
// above the heap reachable before the first pass (the input bytes and
// the reference). HiFIND's state is allocated up front and results only
// accumulate, so that is the pass's peak of retained heap.
func timedRun(w workload, in input, g *gate, dur time.Duration, inf *info) (map[string]metric, int, error) {
	var eps, setup, heapMB, recall, precision []float64
	for i := 0; i < setupTrials; i++ {
		runtime.GC()
		d, err := setupOnce(w)
		if err != nil {
			return nil, 0, err
		}
		setup = append(setup, d.Seconds())
	}
	base := reachableHeap()
	// A gate without a reference adopts the first pass, so a second pass
	// is needed for the gate to check anything.
	minPasses := 1
	if g.ref == nil {
		minPasses = 2
	}
	var latency, segments [][]float64
	start := time.Now()
	for len(eps) < minPasses || time.Since(start) < dur {
		runtime.GC()
		p := timedPass(w, in)
		g.check(p)
		eps = append(eps, p.eps())
		setup = append(setup, p.setup.Seconds())
		latency = append(latency, p.latencyMS)
		segments = append(segments, p.segMS)
		heapMB = append(heapMB, float64(p.retained-min(p.retained, base))/1e6)
		s := scoreResults(p.results, in.attacks)
		recall = append(recall, s.Recall)
		precision = append(precision, s.Precision)
		inf.Score = s
	}
	inf.PassEPS = eps
	perInterval := perIndexMedians(latency)
	inf.Latency = perInterval
	t := tailOf(perInterval)
	inf.Tail = &t
	return map[string]metric{
		"throughput_eps":         {ratio(float64(in.events), sum(perIndexMedians(segments))/1e3), "events/s"},
		"detect_latency_p50_ms":  {quantile(perInterval, 0.5), "ms"},
		"detect_latency_tail_ms": {t.Value, "ms"},
		"setup_s":                {median(setup), "s"},
		"peak_heap_mb":           {median(heapMB), "MB"},
		"recall":                 {median(recall), "ratio"},
		"precision":              {median(precision), "ratio"},
	}, len(eps), nil
}

// tracedRun alternates untraced and traced passes for dur, so the
// tracing overhead compares passes made under the same conditions, and
// reports the per-layer metrics of the traced passes. Spans are written
// to spanDir when the run ends.
func tracedRun(w workload, in input, g *gate, dur time.Duration, inf *info, spanDir string, seed int64) (map[string]metric, int, error) {
	tr := newTracer()
	var (
		untraced []float64
		tp       []tracedPass
	)
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < dur; round++ {
		plain := func() {
			runtime.GC()
			p := timedPass(w, in)
			g.check(p)
			untraced = append(untraced, p.eps())
		}
		withSpans := func() {
			runtime.GC()
			tr.pass = round
			p := traced(w, in, tr)
			g.check(p.pass)
			tp = append(tp, p)
			inf.Score = scoreResults(p.results, in.attacks)
		}
		if round%2 == 0 {
			plain()
			withSpans()
		} else {
			withSpans()
			plain()
		}
	}
	m := layerMetrics(tr.spans, tp, median(untraced))
	inf.Spans = filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.write(inf.Spans); err != nil {
		return nil, 0, fmt.Errorf("write spans: %w", err)
	}
	return m, len(untraced) + len(tp), nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
