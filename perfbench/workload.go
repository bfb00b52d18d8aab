package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"github.com/hifind/hifind"
	"github.com/hifind/hifind/internal/aggregate"
	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/netflow"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/pcap"
	"github.com/hifind/hifind/internal/telemetry"
	"github.com/hifind/hifind/internal/trace"
)

// Deployment constants shared by every workload.
const (
	// edgeCIDR is the monitored network of the NU preset.
	edgeCIDR = "129.105.0.0/16"
	// sketchSeed is the facade's default seed, which cmd/hifind's
	// -report/-collect modes also use.
	sketchSeed = 0x48694649
	// traceIntervals is the generated trace length in one-minute
	// intervals.
	traceIntervals = 30
	// layoutSeed fixes the NU preset's attack schedule (which attacks
	// run in which intervals, against which addresses) at cmd/tracegen's
	// default seed, so every benchmark seed replays the same scenario;
	// the benchmark seed drives the packet-level realization.
	layoutSeed = 101
	// shardWorkers and routers are pinned, not taken from nproc, so
	// figures stay comparable across machines.
	shardWorkers = 2
	routers      = 2
	// cacheEntries sizes the flow cache of zipf-netflow.
	cacheEntries = 16384
	// collectDeadline bounds the wait for one epoch's frames. An epoch
	// that hits it closes Partial, which fails the gate and ends the
	// pass, so a stalled router cannot hold a run past its time limit.
	collectDeadline = 10 * time.Second
)

// mode is the ingestion path a workload drives.
type mode int

const (
	sequential  mode = iota // hifind.New, one goroutine
	sharded                 // hifind.NewParallel with shardWorkers
	multirouter             // Splitter → router Recorders → Reporter → Collector
)

// workload is one input and ingestion path.
type workload struct {
	name    string
	why     string
	scale   float64 // NU preset attack scale
	zipf    float64 // trace.Config.ZipfSkew (0 = uniform clients)
	netflow bool    // NetFlow v5 input instead of pcap
	cache   int     // flow-cache entries (0 = none)
	mode    mode
}

var workloads = []workload{
	{name: "nu-pcap", scale: 1, mode: sequential,
		why: "default operator path: NU pcap into hifind.New(); recording and EndInterval dominate, cache/pipeline/aggregation idle"},
	{name: "attack-storm", scale: 4, mode: sequential,
		why: "IDS under attack: 4x attacks, reverse inference dominates and sets the detection-latency tail"},
	{name: "zipf-netflow", scale: 1, zipf: 1.5, netflow: true, cache: cacheEntries, mode: sequential,
		why: "skewed NetFlow v5 into a 16384-entry flow cache: the only run through netflow decode, weighted updates and flowcache"},
	{name: "nu-sharded", scale: 1, mode: sharded,
		why: "nu-pcap bytes into NewParallel(2 workers): planner, op routing, shard views and the rotation stitch"},
	{name: "multirouter", scale: 1, mode: multirouter,
		why: "nu-pcap split over 2 routers reporting over loopback TCP to one collector: marshal, frame codec, unmarshal, merge"},
}

func lookup(name string) (workload, error) {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// input is a workload's generated trace, held in memory before timing.
type input struct {
	data      []byte
	events    int // packets (pcap) or flow records (NetFlow) in data
	generated int // intervals the generator produced
	attacks   []trace.Attack
}

// makeInput generates the workload's trace and encodes it the way
// cmd/tracegen does. seed drives the generator: background clients,
// services, ports, timings, spoofed sources and response draws.
func makeInput(w workload, seed int64, intervals int) (input, error) {
	cfg := trace.NUConfig(layoutSeed, intervals, w.scale)
	cfg.Seed = seed
	cfg.ZipfSkew = w.zipf
	gen, err := trace.New(cfg)
	if err != nil {
		return input{}, err
	}
	var buf bytes.Buffer
	in := input{generated: cfg.Intervals, attacks: gen.Attacks()}
	if w.netflow {
		nw := netflow.NewWriter(&buf, cfg.Start)
		for i := 0; i < cfg.Intervals; i++ {
			pkts, err := gen.GenerateInterval(i)
			if err != nil {
				return input{}, err
			}
			for _, rec := range netflow.FromPackets(pkts, cfg.Start) {
				if err := nw.Add(rec, cfg.Start.Add(time.Duration(rec.LastMs)*time.Millisecond)); err != nil {
					return input{}, err
				}
				in.events++
			}
			if err := nw.Flush(); err != nil {
				return input{}, err
			}
		}
	} else {
		pw := pcap.NewWriter(&buf)
		err = gen.Stream(func(p netmodel.Packet) error {
			in.events++
			return pw.WritePacket(p)
		})
		if err != nil {
			return input{}, err
		}
	}
	in.data = buf.Bytes()
	return in, nil
}

// detectorConfigs is what hifind.New builds with the given cache size;
// the module-level passes use it, and the gate proves it matches by
// comparing their alerts with a facade replay.
func detectorConfigs(cache int) (core.RecorderConfig, core.DetectorConfig) {
	rcfg := core.PaperRecorderConfig(sketchSeed)
	rcfg.FlowCache = cache
	return rcfg, core.DetectorConfig{Threshold: 60, Alpha: 0.5}
}

// pass is the outcome of one replay of the whole input.
type pass struct {
	setup     time.Duration // building the detector and its plumbing
	replay    time.Duration // first byte read to last Result returned
	events    int
	latencyMS []float64             // per interval close, in order
	segMS     []float64             // per interval wall segment (see intervalTimer)
	retained  uint64                // reachable heap after the last Result, detector alive
	results   []core.IntervalResult // gate form, one per closed interval
	err       error
}

func (p pass) eps() float64 { return ratio(float64(p.events), p.replay.Seconds()) }

// intervalTimer cuts a pass's wall time into per-interval segments:
// segment i runs from the end of interval i-1's close (or the start of
// the replay) to the end of interval i's close, so the segments sum to
// the pass's replay time.
type intervalTimer struct {
	last      time.Time
	segMS     []float64
	latencyMS []float64
}

func newIntervalTimer(n int) intervalTimer {
	return intervalTimer{last: time.Now(), segMS: make([]float64, 0, n), latencyMS: make([]float64, 0, n)}
}

// closed records an interval whose close call started at start.
func (t *intervalTimer) closed(start time.Time) {
	now := time.Now()
	t.latencyMS = append(t.latencyMS, ms(now.Sub(start)))
	t.segMS = append(t.segMS, ms(now.Sub(t.last)))
	t.last = now
}

// timedReplay wraps the detector handed to hifind.ReplayPcap/NetFlow and
// times each interval close; embedding the interface keeps the replay
// on the facade's own observe path.
type timedReplay struct {
	hifind.Replayable
	intervalTimer
}

func (t *timedReplay) EndInterval() (hifind.Result, error) {
	start := time.Now()
	r, err := t.Replayable.EndInterval()
	t.closed(start)
	return r, err
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// facadePass replays the input through the operator's entry points:
// hifind.ReplayPcap or ReplayNetFlow into hifind.New, or into
// hifind.NewParallel followed by Close.
func facadePass(w workload, in input) pass {
	var p pass
	start := time.Now()
	var (
		det hifind.Replayable
		par *hifind.Parallel
		err error
	)
	if w.mode == sharded {
		par, err = hifind.NewParallel(hifind.WithWorkers(shardWorkers))
		det = par
	} else {
		var opts []hifind.Option
		if w.cache > 0 {
			opts = append(opts, hifind.WithFlowCache(w.cache))
		}
		det, err = hifind.New(opts...)
	}
	if err != nil {
		p.err = err
		return p
	}
	p.setup = time.Since(start)
	var results []hifind.Result
	start = time.Now()
	td := &timedReplay{Replayable: det, intervalTimer: newIntervalTimer(in.generated + 2)}
	if w.netflow {
		results, p.err = hifind.ReplayNetFlow(bytes.NewReader(in.data), []string{edgeCIDR}, td)
	} else {
		results, p.err = hifind.ReplayPcap(bytes.NewReader(in.data), []string{edgeCIDR}, td)
	}
	if par != nil {
		closeStart := time.Now()
		res, err := par.Close()
		td.closed(closeStart)
		results = append(results, res)
		if p.err == nil {
			p.err = err
		}
	}
	p.replay = time.Since(start)
	p.retained = reachableHeap()
	runtime.KeepAlive(det)
	p.events = in.events
	p.latencyMS, p.segMS = td.latencyMS, td.segMS
	for _, r := range results {
		p.results = append(p.results, fromFacade(r))
	}
	return p
}

// setupOnce builds and tears down the workload's detector with its
// plumbing, timing the build.
func setupOnce(w workload) (time.Duration, error) {
	start := time.Now()
	switch w.mode {
	case multirouter:
		d, err := newDeployment()
		if err != nil {
			return 0, err
		}
		took := time.Since(start)
		d.close()
		return took, nil
	case sharded:
		par, err := hifind.NewParallel(hifind.WithWorkers(shardWorkers))
		if err != nil {
			return 0, err
		}
		took := time.Since(start)
		_, err = par.Close()
		return took, err
	default:
		var opts []hifind.Option
		if w.cache > 0 {
			opts = append(opts, hifind.WithFlowCache(w.cache))
		}
		_, err := hifind.New(opts...)
		return time.Since(start), err
	}
}

// reference replays the input sequentially without a cache, through
// hifind.New and the replay entry point, and returns the per-interval
// digests every pass must reproduce. A sharded pass closes one more
// (empty) interval with Close; its reference is one more sequential
// EndInterval.
func reference(w workload, in input) ([]string, []core.IntervalResult, error) {
	det, err := hifind.New()
	if err != nil {
		return nil, nil, err
	}
	var results []hifind.Result
	if w.netflow {
		results, err = hifind.ReplayNetFlow(bytes.NewReader(in.data), []string{edgeCIDR}, det)
	} else {
		results, err = hifind.ReplayPcap(bytes.NewReader(in.data), []string{edgeCIDR}, det)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("reference replay: %w", err)
	}
	if w.mode == sharded {
		res, err := det.EndInterval()
		if err != nil {
			return nil, nil, fmt.Errorf("reference close: %w", err)
		}
		results = append(results, res)
	}
	rs := make([]core.IntervalResult, len(results))
	for i, r := range results {
		rs[i] = fromFacade(r)
	}
	return intervalDigests(rs), rs, nil
}

// countingConn counts the bytes a reporter puts on the wire.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// deployment is the cmd/hifind -report/-collect path in one process: a
// per-packet Splitter over router Recorders, each shipping its state
// every interval through a Reporter to one Collector over loopback TCP,
// which merges and runs detection.
type deployment struct {
	reg   *telemetry.Registry
	col   *aggregate.Collector
	det   *core.Detector
	split *aggregate.Splitter
	recs  []*core.Recorder
	reps  []*aggregate.Reporter
	wire  atomic.Int64
}

// newDeployment builds the collector, detector, recorders and reporters
// and dials each reporter's connection, so the deployment is ready for
// the first packet when it returns.
func newDeployment() (*deployment, error) {
	rcfg, dcfg := detectorConfigs(0)
	d := &deployment{reg: telemetry.NewRegistry()}
	var err error
	if d.col, err = aggregate.NewCollector(rcfg, routers, "127.0.0.1:0", aggregate.WithTelemetry(d.reg)); err != nil {
		return nil, err
	}
	if d.det, err = core.NewDetector(rcfg, dcfg); err != nil {
		d.close()
		return nil, err
	}
	if d.split, err = aggregate.NewSplitter(routers, sketchSeed); err != nil {
		d.close()
		return nil, err
	}
	for i := 0; i < routers; i++ {
		rec, err := core.NewRecorder(rcfg)
		if err != nil {
			d.close()
			return nil, err
		}
		conn, err := net.Dial("tcp", d.col.Addr())
		if err != nil {
			d.close()
			return nil, err
		}
		// The reporter's first dial takes the connection opened here;
		// only a reconnect dials anew.
		first := net.Conn(countingConn{Conn: conn, n: &d.wire})
		dial := func(addr string) (net.Conn, error) {
			if c := first; c != nil {
				first = nil
				return c, nil
			}
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return countingConn{Conn: c, n: &d.wire}, nil
		}
		d.recs = append(d.recs, rec)
		d.reps = append(d.reps, aggregate.NewReporter(uint32(i), d.col.Addr(), aggregate.WithDialFunc(dial)))
	}
	return d, nil
}

// observe routes one packet to its router's recorder.
func (d *deployment) observe(pkt netmodel.Packet) {
	d.recs[d.split.Route(pkt)].Observe(pkt)
}

// collect gathers and merges one epoch from every router. An epoch that
// closed Partial is an error: the pass stops there.
func (d *deployment) collect(epoch uint64) (*core.Recorder, aggregate.EpochInfo, error) {
	timer := time.NewTimer(collectDeadline)
	defer timer.Stop()
	merged, info, err := d.col.CollectEpoch(epoch, timer.C)
	if err == nil && info.Partial {
		err = fmt.Errorf("epoch %d closed partial with routers %v", epoch, info.Contributors)
	}
	return merged, info, err
}

// dupStaleFrames returns the duplicate and stale frames the collector
// counted.
func (d *deployment) dupStaleFrames() int64 {
	return d.reg.Counter("aggregate_stale_frames_total", "").Value() +
		d.reg.Counter("aggregate_duplicate_frames_total", "").Value()
}

func (d *deployment) close() {
	for _, r := range d.reps {
		_ = r.Close() // Reporter.Close never fails
	}
	if d.col != nil {
		_ = d.col.Close() // teardown; every epoch was already collected
	}
}

// intervalClock applies the replay's interval rule — the first event
// opens interval 0, and an event at or past the interval's end closes
// it (once per elapsed interval) before being recorded — so every
// module-level pass cuts intervals exactly where hifind.ReplayPcap does.
type intervalClock struct {
	start   time.Time
	started bool
}

// crossed reports whether ts falls past the open interval; each true
// return advances the open interval by one.
func (c *intervalClock) crossed(ts time.Time) bool {
	if !c.started {
		c.start, c.started = ts, true
		return false
	}
	if ts.Sub(c.start) >= time.Minute {
		c.start = c.start.Add(time.Minute)
		return true
	}
	return false
}

// multirouterPass replays the input through a fresh deployment, closing
// every interval on the replay goroutine: each router reports, the
// collector merges, the detector runs. Interval latency runs from the
// last router's Report to the Result.
func multirouterPass(in input) pass {
	var p pass
	start := time.Now()
	d, err := newDeployment()
	if err != nil {
		p.err = err
		return p
	}
	defer d.close()
	p.setup = time.Since(start)
	start = time.Now()
	edge, err := netmodel.NewEdgeNetwork(edgeCIDR)
	if err != nil {
		p.err = err
		return p
	}
	pr, err := pcap.NewReader(bytes.NewReader(in.data), edge)
	if err != nil {
		p.err = err
		return p
	}
	var clock intervalClock
	epoch := uint64(0)
	timer := newIntervalTimer(in.generated + 1)
	closeInterval := func() error {
		var last time.Time
		for i, rep := range d.reps {
			last = time.Now()
			if err := rep.Report(epoch, d.recs[i]); err != nil {
				return err
			}
			d.recs[i].Reset()
		}
		merged, info, err := d.collect(epoch)
		if err != nil {
			return err
		}
		res, err := d.det.EndIntervalWithPartial(merged, info.Partial)
		if err != nil {
			return err
		}
		timer.closed(last)
		p.results = append(p.results, fromCore(res))
		epoch++
		return nil
	}
	for {
		pkt, err := pr.Next()
		if err != nil {
			if !isEOF(err) {
				p.err = err
				return p
			}
			break
		}
		for clock.crossed(pkt.Timestamp) {
			if p.err = closeInterval(); p.err != nil {
				return p
			}
		}
		d.observe(pkt)
	}
	if clock.started {
		p.err = closeInterval()
	}
	p.replay = time.Since(start)
	p.retained = reachableHeap() // the deferred close keeps d reachable
	p.events = in.events
	p.latencyMS, p.segMS = timer.latencyMS, timer.segMS
	return p
}
