package hifind_test

import (
	"bytes"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	hifind "github.com/hifind/hifind"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/pcap"
	"github.com/hifind/hifind/internal/trace"
)

// equivTrace is the labelled scenario both detectors replay in the
// equivalence tests: background traffic plus a spoofed flood and a
// horizontal scan, so every detection phase (including the 2D
// classification and the Phase-3 active-service filter) runs over the
// merged state.
func equivTrace(t *testing.T) [][]netmodel.Packet {
	t.Helper()
	cfg := trace.Config{
		Seed:            11,
		Start:           time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC),
		Interval:        time.Minute,
		Intervals:       5,
		InternalPrefix:  0x81690000, // 129.105.0.0
		Servers:         20,
		BackgroundFlows: 400,
		FailRate:        0.04,
	}
	cfg.Attacks = []trace.Attack{
		{
			Type: trace.SYNFlood, Spoofed: true, Victim: 0x8169c801, /* 129.105.200.1 */
			Ports: []uint16{80}, StartInterval: 1, EndInterval: 4, Rate: 400,
			ResponseRate: 0.1, Cause: "flood",
		},
		{
			Type:      trace.HorizontalScan,
			Attackers: []netmodel.IPv4{0x14000005}, /* 20.0.0.5 */
			Victim:    0x81690100, Targets: 200,
			Ports: []uint16{22}, StartInterval: 2, EndInterval: 4, Rate: 300,
			Cause: "hscan",
		},
	}
	g, err := trace.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	intervals := make([][]netmodel.Packet, cfg.Intervals)
	for i := range intervals {
		pkts, err := g.GenerateInterval(i)
		if err != nil {
			t.Fatal(err)
		}
		intervals[i] = pkts
	}
	return intervals
}

// toPublic converts an internal trace packet to the public API shape.
func toPublic(p netmodel.Packet) hifind.Packet {
	return hifind.Packet{
		Timestamp: p.Timestamp,
		SrcIP:     netip.AddrFrom4(p.SrcIP.Octets()),
		DstIP:     netip.AddrFrom4(p.DstIP.Octets()),
		SrcPort:   p.SrcPort,
		DstPort:   p.DstPort,
		SYN:       p.Flags&netmodel.FlagSYN != 0,
		ACK:       p.Flags&netmodel.FlagACK != 0,
		FIN:       p.Flags&netmodel.FlagFIN != 0,
		RST:       p.Flags&netmodel.FlagRST != 0,
		Dir:       hifind.Direction(p.Dir),
	}
}

// stripTimes zeroes the wall-clock field so results compare structurally.
func stripTimes(r hifind.Result) hifind.Result {
	r.DetectionTime = 0
	return r
}

// sequentialBaseline replays the trace through the sequential Detector
// and returns each interval's result and post-interval checkpoint.
func sequentialBaseline(t *testing.T, intervals [][]netmodel.Packet) ([]hifind.Result, [][]byte) {
	t.Helper()
	seq := newCompact(t)
	results := make([]hifind.Result, 0, len(intervals))
	states := make([][]byte, 0, len(intervals))
	for _, pkts := range intervals {
		for _, p := range pkts {
			seq.Observe(toPublic(p))
		}
		res, err := seq.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		state, err := seq.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, stripTimes(res))
		states = append(states, state)
	}
	return results, states
}

// newProducers opens n ingestion handles on a sharded detector, on the
// test goroutine so a failure can stop the test.
func newProducers(t *testing.T, d *hifind.Detector, n int) []*hifind.Producer {
	t.Helper()
	prods := make([]*hifind.Producer, n)
	for i := range prods {
		pr, err := d.NewProducer()
		if err != nil {
			t.Fatal(err)
		}
		prods[i] = pr
	}
	return prods
}

// TestParallelEquivalence is the linearity proof in test form: the same
// trace through the sequential Detector and through the sharded engine
// at 1, 4 and 7 workers must yield identical alerts at every phase and
// bit-identical SaveState checkpoints at every interval — parallelism
// with zero accuracy cost.
func TestParallelEquivalence(t *testing.T) {
	intervals := equivTrace(t)
	wantResults, wantStates := sequentialBaseline(t, intervals)
	sawAlert := false
	for _, r := range wantResults {
		if len(r.Final) > 0 {
			sawAlert = true
		}
	}
	if !sawAlert {
		t.Fatal("baseline produced no alerts; the equivalence would be vacuous")
	}
	for _, workers := range []int{1, 4, 7} {
		par := newCompact(t, hifind.WithWorkers(workers), hifind.WithBatchSize(64))
		if par.Workers() != workers {
			t.Fatalf("workers = %d, want %d", par.Workers(), workers)
		}
		for i, pkts := range intervals {
			for _, p := range pkts {
				par.Observe(toPublic(p))
			}
			res, err := par.EndInterval()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stripTimes(res), wantResults[i]) {
				t.Errorf("workers=%d interval %d: results diverge from sequential\n got %+v\nwant %+v",
					workers, i, stripTimes(res), wantResults[i])
			}
			state, err := par.SaveState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(state, wantStates[i]) {
				t.Errorf("workers=%d interval %d: checkpoint not bit-identical to sequential", workers, i)
			}
		}
		if _, err := par.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelEquivalenceMultiProducer repeats the proof with the trace
// split across concurrent producer goroutines: packet order across
// shards is now racy, and linearity still guarantees the same merged
// state and alerts.
func TestParallelEquivalenceMultiProducer(t *testing.T) {
	intervals := equivTrace(t)
	wantResults, wantStates := sequentialBaseline(t, intervals)
	const producers = 3
	par := newCompact(t, hifind.WithWorkers(4), hifind.WithBatchSize(32))
	for i, pkts := range intervals {
		var wg sync.WaitGroup
		for g, pr := range newProducers(t, par, producers) {
			wg.Add(1)
			go func(g int, pr *hifind.Producer) {
				defer wg.Done()
				for j := g; j < len(pkts); j += producers {
					pr.Observe(toPublic(pkts[j]))
				}
				pr.Flush()
			}(g, pr)
		}
		wg.Wait()
		res, err := par.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripTimes(res), wantResults[i]) {
			t.Errorf("interval %d: multi-producer results diverge from sequential", i)
		}
		state, err := par.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(state, wantStates[i]) {
			t.Errorf("interval %d: multi-producer checkpoint not bit-identical", i)
		}
	}
	if _, err := par.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelStateInterchange proves checkpoints cross the
// sequential/parallel boundary: a parallel detector restored from a
// sequential checkpoint must continue exactly like the sequential one.
func TestParallelStateInterchange(t *testing.T) {
	intervals := equivTrace(t)
	seq := newCompact(t)
	const handoff = 2
	for _, pkts := range intervals[:handoff] {
		for _, p := range pkts {
			seq.Observe(toPublic(p))
		}
		if _, err := seq.EndInterval(); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint, err := seq.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	par := newCompact(t, hifind.WithWorkers(4))
	if err := par.LoadState(checkpoint); err != nil {
		t.Fatal(err)
	}
	for i, pkts := range intervals[handoff:] {
		for _, p := range pkts {
			seq.Observe(toPublic(p))
			par.Observe(toPublic(p))
		}
		sres, err := seq.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		pres, err := par.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripTimes(sres), stripTimes(pres)) {
			t.Errorf("interval %d after restore: results diverge", handoff+i)
		}
		sstate, err := seq.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		pstate, err := par.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sstate, pstate) {
			t.Errorf("interval %d after restore: checkpoints differ", handoff+i)
		}
	}
	if _, err := par.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelReplay drives the replay entry points with a Parallel
// detector (both satisfy Replayable) and checks interval results match
// a sequential replay of the same capture.
func TestParallelReplay(t *testing.T) {
	intervals := equivTrace(t)
	// Round-trip through the same in-memory pcap for both detectors.
	capture := func() *bytes.Buffer {
		var buf bytes.Buffer
		w := pcap.NewWriter(&buf)
		for _, pkts := range intervals {
			for _, p := range pkts {
				if err := w.WritePacket(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		return &buf
	}
	seq := newCompact(t)
	seqRes, err := hifind.ReplayPcap(capture(), []string{"129.105.0.0/16"}, seq)
	if err != nil {
		t.Fatal(err)
	}
	par := newCompact(t, hifind.WithWorkers(4))
	parRes, err := hifind.ReplayPcap(capture(), []string{"129.105.0.0/16"}, par)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqRes) != len(parRes) {
		t.Fatalf("replay intervals: %d sequential, %d parallel", len(seqRes), len(parRes))
	}
	for i := range seqRes {
		if !reflect.DeepEqual(stripTimes(seqRes[i]), stripTimes(parRes[i])) {
			t.Errorf("replay interval %d: results diverge", i)
		}
	}
	if _, err := par.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelDroppedAndClose covers the bookkeeping edges: non-IPv4
// events count atomically across producers, Close runs one final
// detection over the unfinished interval, and a closed detector errors.
func TestParallelDroppedAndClose(t *testing.T) {
	par := newCompact(t, hifind.WithWorkers(2))
	v6 := netip.MustParseAddr("2001:db8::1")
	var wg sync.WaitGroup
	for _, pr := range newProducers(t, par, 3) {
		wg.Add(1)
		go func(pr *hifind.Producer) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				pr.Observe(hifind.Packet{SrcIP: v6, DstIP: v6, SYN: true, Dir: hifind.Inbound})
				pr.ObserveFlow(hifind.Flow{SrcIP: v6, DstIP: v6, SYNs: 1, Dir: hifind.Inbound})
			}
			pr.Flush()
		}(pr)
	}
	wg.Wait()
	if par.Dropped() != 60 {
		t.Errorf("dropped = %d, want 60", par.Dropped())
	}
	// Feed a real packet, then Close without EndInterval: the event must
	// reach the final leftover detection rather than vanish.
	par.Observe(synIn("8.8.8.8", "129.105.1.1", 80))
	res, err := par.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Interval != 0 {
		t.Errorf("close interval = %d, want 0", res.Interval)
	}
	if _, err := par.Close(); err == nil {
		t.Error("second Close succeeded")
	}
	if _, err := par.EndInterval(); err == nil {
		t.Error("EndInterval succeeded after Close")
	}
	if par.MemoryBytes() == 0 {
		t.Error("memory accounting empty")
	}
	if par.Shed() != 0 {
		t.Errorf("blocking policy shed %d", par.Shed())
	}
}

// TestParallelOptionsValidation pins the worker options: 0 workers (the
// default) records inline, n ≥ 1 shards n ways, and negative counts,
// empty batches and empty queues are rejected.
func TestParallelOptionsValidation(t *testing.T) {
	bad := [][]hifind.Option{
		{hifind.WithWorkers(-2)},
		{hifind.WithBatchSize(0)},
		{hifind.WithQueueDepth(0)},
	}
	for i, opts := range bad {
		if _, err := hifind.New(opts...); err == nil {
			t.Errorf("bad option set %d accepted", i)
		}
	}
	for _, tc := range []struct {
		opts    []hifind.Option
		workers int
	}{
		{nil, 0},
		{[]hifind.Option{hifind.WithWorkers(0), hifind.WithShedOnOverload(), hifind.WithBatchSize(8)}, 0},
		{[]hifind.Option{hifind.WithWorkers(4)}, 4},
	} {
		d := newCompact(t, tc.opts...)
		if d.Workers() != tc.workers {
			t.Errorf("Workers() = %d, want %d", d.Workers(), tc.workers)
		}
		if _, err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInlineClose: Close on an inline detector is one last EndInterval,
// and the detector is closed afterwards, exactly like a sharded one.
func TestInlineClose(t *testing.T) {
	intervals := equivTrace(t)
	want, _ := sequentialBaseline(t, intervals[:2])
	d := newCompact(t)
	for _, p := range intervals[0] {
		d.Observe(toPublic(p))
	}
	if _, err := d.EndInterval(); err != nil {
		t.Fatal(err)
	}
	for _, p := range intervals[1] {
		d.Observe(toPublic(p))
	}
	res, err := d.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTimes(res), want[1]) {
		t.Errorf("Close result differs from EndInterval's\n got %+v\nwant %+v", stripTimes(res), want[1])
	}
	if _, err := d.Close(); err == nil {
		t.Error("second Close succeeded")
	}
	if _, err := d.EndInterval(); err == nil {
		t.Error("EndInterval succeeded after Close")
	}
}

// TestNewProducerNeedsShards: an inline detector has no engine for a
// producer to feed.
func TestNewProducerNeedsShards(t *testing.T) {
	if _, err := newCompact(t).NewProducer(); err == nil {
		t.Fatal("NewProducer on an inline detector succeeded")
	}
}

// TestShardedEndIntervalMerged splits every interval between the
// detector and a remote Recorder and merges the remote snapshot in with
// EndIntervalMerged: a 3-worker detector must match the inline one in
// alerts and in SaveState bytes at every interval.
func TestShardedEndIntervalMerged(t *testing.T) {
	intervals := equivTrace(t)
	inline := newCompact(t)
	sharded := newCompact(t, hifind.WithWorkers(3), hifind.WithBatchSize(64))
	defer sharded.Close()
	remote, err := hifind.NewRecorder(hifind.WithCompactSketches())
	if err != nil {
		t.Fatal(err)
	}
	sawAlert := false
	for i, pkts := range intervals {
		for j, p := range pkts {
			if j%2 == 0 {
				remote.Observe(toPublic(p))
			} else {
				inline.Observe(toPublic(p))
				sharded.Observe(toPublic(p))
			}
		}
		state, err := remote.StateSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		want, err := inline.EndIntervalMerged(state)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.EndIntervalMerged(state)
		if err != nil {
			t.Fatal(err)
		}
		sawAlert = sawAlert || len(want.Final) > 0
		if !reflect.DeepEqual(stripTimes(got), stripTimes(want)) {
			t.Errorf("interval %d: sharded merged results diverge\n got %+v\nwant %+v", i, stripTimes(got), stripTimes(want))
		}
		wantState, err := inline.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		gotState, err := sharded.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotState, wantState) {
			t.Errorf("interval %d: sharded merged checkpoint not bit-identical", i)
		}
	}
	if !sawAlert {
		t.Fatal("merged baseline produced no alerts; the equivalence would be vacuous")
	}
}
