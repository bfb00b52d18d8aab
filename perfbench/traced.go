package main

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/netflow"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/pcap"
	"github.com/hifind/hifind/internal/pipeline"
)

// The traced run replays the same bytes with the same configuration as
// the timed run, but drives the modules directly so each layer's calls
// can be timed from here: each interval is first decoded into a reused
// buffer (one decode span), then recorded from it (one record span),
// then closed (rotate, report, collect and detect spans as the path
// has them). Spans are per interval per layer, never per event.

func isEOF(err error) bool { return errors.Is(err, io.EOF) }

// source decodes one interval's events at a time into a reused buffer,
// cutting intervals by the replay's rule.
type source[T any] struct {
	name     string // decode span name
	next     func() (T, time.Time, error)
	clock    intervalClock
	carry    T
	carryTS  time.Time
	hasCarry bool
	eof      bool
	buf      []T
}

// fill decodes the open interval into buf. It returns false once the
// input is exhausted and its last interval has been handed out.
func (s *source[T]) fill() (bool, error) {
	s.buf = s.buf[:0]
	if s.eof {
		return false, nil
	}
	for {
		var (
			ev  T
			ts  time.Time
			err error
		)
		if s.hasCarry {
			ev, ts, s.hasCarry = s.carry, s.carryTS, false
		} else if ev, ts, err = s.next(); err != nil {
			if !isEOF(err) {
				return false, err
			}
			s.eof = true
			return s.clock.started, nil
		}
		if s.clock.crossed(ts) {
			s.carry, s.carryTS, s.hasCarry = ev, ts, true
			return true, nil
		}
		s.buf = append(s.buf, ev)
	}
}

func pcapSource(in input) (*source[netmodel.Packet], *pcap.Reader, error) {
	edge, err := netmodel.NewEdgeNetwork(edgeCIDR)
	if err != nil {
		return nil, nil, err
	}
	pr, err := pcap.NewReader(bytes.NewReader(in.data), edge)
	if err != nil {
		return nil, nil, err
	}
	next := func() (netmodel.Packet, time.Time, error) {
		p, err := pr.Next()
		return p, p.Timestamp, err
	}
	return &source[netmodel.Packet]{name: "pcap.next", next: next}, pr, nil
}

func netflowSource(in input) (*source[netmodel.FlowRecord], error) {
	edge, err := netmodel.NewEdgeNetwork(edgeCIDR)
	if err != nil {
		return nil, err
	}
	nr := netflow.NewReader(bytes.NewReader(in.data))
	next := func() (netmodel.FlowRecord, time.Time, error) {
		for {
			rec, hdr, err := nr.Next()
			if err != nil {
				return netmodel.FlowRecord{}, time.Time{}, err
			}
			if fr, ok := netflow.ToFlowRecord(rec, hdr, edge); ok {
				return fr, fr.End, nil
			}
		}
	}
	return &source[netmodel.FlowRecord]{name: "netflow.next", next: next}, nil
}

// eachInterval runs step once per interval of src, each under an
// interval span of run holding the decode span.
func eachInterval[T any](tr *tracer, run int, src *source[T], step func(iv int, buf []T) error) error {
	for {
		iv := tr.begin(run, "interval")
		dec := tr.begin(iv, src.name)
		more, err := src.fill()
		tr.finish(dec, len(src.buf))
		if err != nil {
			return err
		}
		if !more {
			tr.spans = tr.spans[:iv-1] // no interval left; the EOF read is run self time
			return nil
		}
		if err := step(iv, src.buf); err != nil {
			return err
		}
		tr.finish(iv, len(src.buf))
	}
}

// runtimeCounters reads cumulative allocation and GC counters.
type runtimeCounters struct{ bytes, gcs uint64 }

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readRuntime() runtimeCounters {
	metrics.Read(rtSamples)
	return runtimeCounters{rtSamples[0].Value.Uint64(), rtSamples[1].Value.Uint64()}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tracedPass is one traced replay with the counters read around it.
type tracedPass struct {
	pass
	cpu      time.Duration // process CPU over the replay
	rt       runtimeCounters
	skipped  int   // pcap frames the reader dropped
	wire     int64 // reporter bytes on the wire
	dupStale int64 // duplicate and stale frames at the collector
	shed     int64 // events the pipeline shed
}

// endSpan closes the interval with end on a core.end_interval span,
// attaching the interval's DiagStats and the counter writes recs made
// during the close (a flow cache's rotation flush writes there).
func endSpan(tr *tracer, iv int, recs []*core.Recorder, end func() (core.IntervalResult, error)) (core.IntervalResult, error) {
	id := tr.begin(iv, "core.end_interval")
	acc0 := memoryAccesses(recs)
	res, err := end()
	acc := memoryAccesses(recs) - acc0
	tr.finish(id, 1)
	tr.attr(id, "memory_accesses", float64(acc))
	tr.attr(id, "detection_s", res.DetectionSeconds)
	tr.attr(id, "inference_s", res.Diag.InferenceSeconds)
	tr.attr(id, "cache_flush_s", res.Diag.CacheFlushSeconds)
	tr.attr(id, "keys_recovered", float64(res.Diag.KeysRecovered))
	tr.attr(id, "candidates", float64(res.Diag.FloodCandidates+res.Diag.PairCandidates+res.Diag.SourceCandidates))
	tr.attr(id, "cache_hits", float64(res.Diag.CacheHits))
	tr.attr(id, "cache_misses", float64(res.Diag.CacheMisses))
	tr.attr(id, "cache_evictions", float64(res.Diag.CacheEvictions))
	return res, err
}

func memoryAccesses(recs []*core.Recorder) int64 {
	var n int64
	for _, r := range recs {
		n += r.MemoryAccesses()
	}
	return n
}

// recordSpan times record over n events on a span named name under iv,
// attaching the heap allocations record made and the counter writes
// recs made. The counters are read inside the span, next to record, so
// the span bookkeeping itself is not counted. Allocations come from
// runtime.ReadMemStats, which flushes every P's allocation cache: the
// runtime/metrics counter only catches up with a cache when it is
// refilled, so it would charge earlier allocations to this span.
func recordSpan(tr *tracer, iv int, name string, n int, recs []*core.Recorder, record func()) {
	id := tr.begin(iv, name)
	acc0 := memoryAccesses(recs)
	runtime.ReadMemStats(&tr.mem)
	mallocs0 := tr.mem.Mallocs
	record()
	runtime.ReadMemStats(&tr.mem)
	acc := memoryAccesses(recs) - acc0
	tr.finish(id, n)
	tr.attr(id, "allocs", float64(tr.mem.Mallocs-mallocs0))
	tr.attr(id, "memory_accesses", float64(acc))
}

// traced runs one traced pass of w, timing the replay and the process
// CPU around it exactly as the timed run times facadePass.
func traced(w workload, in input, tr *tracer) tracedPass {
	var p tracedPass
	run := tr.begin(0, "run")
	rt0 := readRuntime()
	switch w.mode {
	case sequential:
		p = tracedSequential(w, in, tr, run)
	case sharded:
		p = tracedSharded(w, in, tr, run)
	case multirouter:
		p = tracedMultirouter(in, tr, run)
	}
	tr.finish(run, in.events)
	rt1 := readRuntime()
	p.rt = runtimeCounters{rt1.bytes - rt0.bytes, rt1.gcs - rt0.gcs}
	p.events = in.events
	return p
}

// replayClock starts the replay timer and the CPU clock.
func replayClock(p *tracedPass) func() {
	start, cpu0 := time.Now(), cpuTime()
	return func() {
		p.replay = time.Since(start)
		p.cpu = cpuTime() - cpu0
	}
}

func tracedSequential(w workload, in input, tr *tracer, run int) tracedPass {
	var p tracedPass
	s := tr.begin(run, "setup")
	start := time.Now()
	rcfg, dcfg := detectorConfigs(w.cache)
	det, err := core.NewDetector(rcfg, dcfg)
	p.setup = time.Since(start)
	tr.finish(s, 0)
	if err != nil {
		p.err = err
		return p
	}
	recs := []*core.Recorder{det.Recorder()}
	stop := replayClock(&p)
	end := func(iv int) error {
		res, err := endSpan(tr, iv, recs, det.EndInterval)
		p.results = append(p.results, fromCore(res))
		return err
	}
	if w.netflow {
		src, err := netflowSource(in)
		if err != nil {
			p.err = err
			return p
		}
		p.err = eachInterval(tr, run, src, func(iv int, buf []netmodel.FlowRecord) error {
			recordSpan(tr, iv, "core.observe", len(buf), recs, func() {
				for _, fr := range buf {
					det.ObserveFlow(fr)
				}
			})
			return end(iv)
		})
	} else {
		src, pr, err := pcapSource(in)
		if err != nil {
			p.err = err
			return p
		}
		p.err = eachInterval(tr, run, src, func(iv int, buf []netmodel.Packet) error {
			recordSpan(tr, iv, "core.observe", len(buf), recs, func() {
				for _, pkt := range buf {
					det.Observe(pkt)
				}
			})
			return end(iv)
		})
		p.skipped = pr.Skipped()
	}
	stop()
	return p
}

// tracedSharded mirrors hifind.Parallel: one producer plans and routes
// every event, EndInterval flushes it, rotates the epoch, detects over
// the rotated recorder, copies its service memory into the detector's
// recorder and recycles it; Close ends with one more detection.
func tracedSharded(w workload, in input, tr *tracer, run int) tracedPass {
	var p tracedPass
	s := tr.begin(run, "setup")
	start := time.Now()
	rcfg, dcfg := detectorConfigs(w.cache)
	det, err := core.NewDetector(rcfg, dcfg)
	var eng *pipeline.Engine
	if err == nil {
		eng, err = pipeline.New(pipeline.Config{Recorder: rcfg, Workers: shardWorkers})
	}
	p.setup = time.Since(start)
	tr.finish(s, 0)
	if err != nil {
		p.err = err
		return p
	}
	prod := eng.NewProducer()
	detect := func(iv int, rec *core.Recorder) error {
		res, err := endSpan(tr, iv, nil, func() (core.IntervalResult, error) { return det.EndIntervalWith(rec) })
		p.results = append(p.results, fromCore(res))
		if err != nil {
			return err
		}
		det.Recorder().Services.Reset()
		return det.Recorder().Services.Union(rec.Services)
	}
	stop := replayClock(&p)
	src, pr, err := pcapSource(in)
	if err != nil {
		_, _ = eng.Close() // stop the workers; the pass already failed
		p.err = err
		return p
	}
	p.err = eachInterval(tr, run, src, func(iv int, buf []netmodel.Packet) error {
		recordSpan(tr, iv, "pipeline.ingest", len(buf), nil, func() {
			for _, pkt := range buf {
				prod.Ingest(pipeline.Event{Pkt: pkt})
			}
		})
		id := tr.begin(iv, "pipeline.rotate")
		prod.Flush()
		merged, err := eng.Rotate()
		tr.finish(id, 1)
		if err != nil {
			return err
		}
		if err := detect(iv, merged); err != nil {
			return err
		}
		id = tr.begin(iv, "pipeline.recycle")
		err = eng.Recycle()
		tr.finish(id, 1)
		return err
	})
	if p.err == nil {
		iv := tr.begin(run, "interval")
		id := tr.begin(iv, "pipeline.close")
		prod.Flush()
		leftover, err := eng.Close()
		tr.finish(id, 1)
		if p.err = err; err == nil {
			p.err = detect(iv, leftover)
		}
		tr.finish(iv, 0)
	} else {
		_, _ = eng.Close() // stop the workers; the pass already failed
	}
	stop()
	p.skipped = pr.Skipped()
	p.shed = eng.Shed()
	return p
}

// tracedMultirouter times each step multirouterPass takes, with each
// router's Report and Reset and the collector's CollectEpoch as spans.
func tracedMultirouter(in input, tr *tracer, run int) tracedPass {
	var p tracedPass
	s := tr.begin(run, "setup")
	start := time.Now()
	d, err := newDeployment()
	p.setup = time.Since(start)
	tr.finish(s, 0)
	if err != nil {
		p.err = err
		return p
	}
	stop := replayClock(&p)
	src, pr, err := pcapSource(in)
	if err != nil {
		d.close()
		p.err = err
		return p
	}
	epoch := uint64(0)
	p.err = eachInterval(tr, run, src, func(iv int, buf []netmodel.Packet) error {
		recordSpan(tr, iv, "core.observe", len(buf), d.recs, func() {
			for _, pkt := range buf {
				d.observe(pkt)
			}
		})
		for i, rep := range d.reps {
			id := tr.begin(iv, "aggregate.report")
			err := rep.Report(epoch, d.recs[i])
			tr.finish(id, 1)
			if err != nil {
				return err
			}
			id = tr.begin(iv, "core.reset")
			d.recs[i].Reset()
			tr.finish(id, 1)
		}
		id := tr.begin(iv, "aggregate.collect")
		merged, info, err := d.collect(epoch)
		tr.finish(id, len(info.Contributors))
		if err != nil {
			return err
		}
		res, err := endSpan(tr, iv, nil, func() (core.IntervalResult, error) {
			return d.det.EndIntervalWithPartial(merged, info.Partial)
		})
		p.results = append(p.results, fromCore(res))
		epoch++
		return err
	})
	stop()
	p.skipped = pr.Skipped()
	p.wire = d.wire.Load()
	p.dupStale = d.dupStaleFrames()
	td := tr.begin(run, "teardown")
	d.close()
	tr.finish(td, 0)
	return p
}

// layerOf groups span names into the layers whose self time is
// reported; run and interval self time is the residual.
var layerOf = map[string]string{
	"setup":             "setup",
	"teardown":          "teardown",
	"pcap.next":         "decode",
	"netflow.next":      "decode",
	"core.observe":      "record",
	"pipeline.ingest":   "record",
	"pipeline.rotate":   "rotate",
	"pipeline.recycle":  "rotate",
	"pipeline.close":    "rotate",
	"core.end_interval": "detect",
	"aggregate.report":  "report",
	"core.reset":        "report",
	"aggregate.collect": "collect",
	"run":               "residual",
	"interval":          "residual",
}

// layers lists the reported layers in output order.
var layers = []string{"setup", "decode", "record", "rotate", "report", "collect", "detect", "teardown", "residual"}

// spanStats sums durations, events and attributes per span name.
type spanStats struct {
	dur    time.Duration
	events int
	n      int
	durs   []float64 // per span, ms
	attrs  map[string][]float64
}

func statsByName(spans []span) map[string]*spanStats {
	out := make(map[string]*spanStats)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{attrs: make(map[string][]float64)}
			out[s.Name] = st
		}
		st.dur += time.Duration(s.dur())
		st.events += s.Events
		st.n++
		st.durs = append(st.durs, float64(s.dur())/1e6)
		for k, v := range s.Attrs {
			st.attrs[k] = append(st.attrs[k], v)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// layerMetrics derives the per-layer metrics from the traced passes'
// spans and counters. untracedEPS is the median throughput of the
// untraced passes interleaved with them. Every metric is computed on
// every workload; one of a layer the workload bypasses reads 0.
func layerMetrics(spans []span, passes []tracedPass, untracedEPS float64) map[string]metric {
	st := statsByName(spans)
	get := func(name string) *spanStats {
		if s := st[name]; s != nil {
			return s
		}
		return &spanStats{attrs: map[string][]float64{}}
	}
	nsPer := func(name string) float64 {
		s := get(name)
		return ratio(float64(s.dur.Nanoseconds()), float64(s.events))
	}
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	put("pcap.next_ns_per_pkt", "ns", nsPer("pcap.next"))
	put("netflow.next_ns_per_record", "ns", nsPer("netflow.next"))

	obs := get("core.observe")
	put("core.observe_ns_per_event", "ns", nsPer("core.observe"))
	put("core.memory_accesses_per_event", "count", ratio(sum(obs.attrs["memory_accesses"])+sum(get("core.end_interval").attrs["memory_accesses"]), float64(obs.events)))
	// An allocation by another goroutine lands in whichever record span
	// is open, so allocations are read per pass and the median pass is
	// reported.
	var allocs []float64
	for _, ss := range byPass(spans, "core.observe", "pipeline.ingest") {
		var n, events float64
		for _, s := range ss {
			n += s.Attrs["allocs"]
			events += float64(s.Events)
		}
		allocs = append(allocs, ratio(n, events))
	}
	put("core.allocs_per_event", "count", median(allocs))

	det := get("core.end_interval")
	hits, misses := sum(det.attrs["cache_hits"]), sum(det.attrs["cache_misses"])
	put("flowcache.hit_ratio", "ratio", ratio(hits, hits+misses))
	put("flowcache.evictions_per_interval", "count", mean(det.attrs["cache_evictions"]))
	flushMS := scale(det.attrs["cache_flush_s"], 1e3)
	put("flowcache.flush_ms_p50", "ms", median(flushMS))

	put("pipeline.observe_ns_per_event", "ns", nsPer("pipeline.ingest"))
	rot, rec := get("pipeline.rotate").durs, get("pipeline.recycle").durs
	rotate := make([]float64, len(rot))
	for i := range rot {
		rotate[i] = rot[i]
		if i < len(rec) {
			rotate[i] += rec[i]
		}
	}
	put("pipeline.rotate_ms_p50", "ms", median(rotate))

	infMS := scale(det.attrs["inference_s"], 1e3)
	var endRuns [][]float64
	for _, ss := range byPass(spans, "core.end_interval") {
		durs := make([]float64, len(ss))
		for i, s := range ss {
			durs[i] = float64(s.dur()) / 1e6
		}
		endRuns = append(endRuns, durs)
	}
	endPerInterval := perIndexMedians(endRuns)
	put("core.end_interval_ms_p50", "ms", median(endPerInterval))
	put("core.end_interval_ms_tail", "ms", tailOf(endPerInterval).Value)
	put("core.inference_ms_p50", "ms", median(infMS))
	put("core.keys_recovered_per_interval", "count", mean(det.attrs["keys_recovered"]))
	put("core.candidates_per_interval", "count", mean(det.attrs["candidates"]))
	residual := make([]float64, len(det.durs))
	for i, d := range det.durs {
		residual[i] = d - infMS[i] - flushMS[i]
	}
	put("core.residual_detect_ms_p50", "ms", median(residual))

	put("aggregate.report_ms_p50", "ms", median(get("aggregate.report").durs))
	put("aggregate.collect_ms_p50", "ms", median(get("aggregate.collect").durs))

	var wall, cpu time.Duration
	var shed, wire, dupStale, skipped int64
	var allocMB, gcs []float64
	for _, p := range passes {
		wall += p.replay
		cpu += p.cpu
		shed += p.shed
		wire += p.wire
		dupStale += p.dupStale
		skipped += int64(p.skipped)
		allocMB = append(allocMB, float64(p.rt.bytes)/1e6/float64(len(p.results)))
		gcs = append(gcs, float64(p.rt.gcs))
	}
	intervals := float64(det.n)
	put("aggregate.wire_mb_per_interval", "MB", ratio(float64(wire)/1e6, intervals))
	put("aggregate.dup_stale_frames", "count", float64(dupStale))
	put("pipeline.shed", "count", float64(shed))
	put("pcap.skipped", "count", float64(skipped))
	put("cpu.busy_cores", "cores", ratio(cpu.Seconds(), wall.Seconds()))
	put("runtime.alloc_mb_per_interval", "MB", median(allocMB))
	put("runtime.gc_cycles", "cycles/pass", median(gcs))

	tracedEPS := make([]float64, len(passes))
	for i, p := range passes {
		tracedEPS[i] = p.eps()
	}
	put("trace.untraced_throughput_eps", "events/s", untracedEPS)
	put("trace.traced_throughput_eps", "events/s", median(tracedEPS))
	put("trace.overhead_pct", "%", 100*ratio(untracedEPS-median(tracedEPS), untracedEPS))

	self := selfTimes(spans)
	var runTotal time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			runTotal += time.Duration(s.dur())
		}
	}
	shares := map[string]float64{}
	for name, d := range self {
		shares[layerOf[name]] += ratio(float64(d), float64(runTotal))
	}
	accounted := 0.0
	for _, l := range layers {
		put("self."+l+"_share", "ratio", shares[l])
		accounted += shares[l]
	}
	put("self.accounted_share", "ratio", accounted)
	put("self.run_ms_per_pass", "ms", ratio(ms(runTotal), float64(len(passes))))
	return m
}

// byPass returns the spans with one of names, grouped by pass in pass
// order, each group in recording order.
func byPass(spans []span, names ...string) [][]span {
	groups := map[int][]span{}
	for _, s := range spans {
		for _, n := range names {
			if s.Name == n {
				groups[s.Pass] = append(groups[s.Pass], s)
			}
		}
	}
	passes := make([]int, 0, len(groups))
	for p := range groups {
		passes = append(passes, p)
	}
	sort.Ints(passes)
	out := make([][]span, len(passes))
	for i, p := range passes {
		out[i] = groups[p]
	}
	return out
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
