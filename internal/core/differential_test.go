package core

// Differential harness for the direct applier: every test drives
// Observe/ObserveFlow and ObserveReference/ObserveFlowReference with
// identical input and requires the complete serialized recorder state —
// every sketch counter, every Bloom bit, every total — to match byte for
// byte. The reference applier is the independently written witness
// (per-sketch hashing, per-SYN NetFlow replay), so agreement here proves
// the direct applier's shared hash powers, bucket plans and weighted
// updates change nothing but speed.

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/trace"
)

// diffRecorders builds two recorders on the same configuration: one
// fed through the direct applier (feed), one through the reference
// applier (feedReference).
func diffRecorders(t *testing.T, seed uint64) (direct, ref *Recorder) {
	t.Helper()
	cfg := TestRecorderConfig(seed)
	var err error
	if direct, err = NewRecorder(cfg); err != nil {
		t.Fatal(err)
	}
	if ref, err = NewRecorder(cfg); err != nil {
		t.Fatal(err)
	}
	return direct, ref
}

// diffEvent is one observation fed identically to both paths.
type diffEvent struct {
	pkt    netmodel.Packet
	flow   netmodel.FlowRecord
	isFlow bool
}

// diffStream generates a deterministic mixed stream of packets and flow
// records: inbound SYNs, outbound SYN/ACKs, ignorable noise, and flow
// records with a spread of SYN/SYNACK counts including the corners the
// weighted path collapses (0 and 1 and large).
func diffStream(seed int64, n int) []diffEvent {
	rng := rand.New(rand.NewSource(seed))
	flowCounts := []int{0, 1, 2, 3, 7, 64, 1000}
	events := make([]diffEvent, 0, n)
	for i := 0; i < n; i++ {
		sip := netmodel.IPv4(rng.Uint32())
		dip := netmodel.IPv4(0x81690000 | rng.Uint32()&0xffff)
		sport := uint16(1024 + rng.Intn(60000))
		dport := uint16(rng.Intn(1 << 16))
		switch rng.Intn(5) {
		case 0: // inbound SYN
			events = append(events, diffEvent{pkt: netmodel.Packet{
				SrcIP: sip, DstIP: dip, SrcPort: sport, DstPort: dport,
				Flags: netmodel.FlagSYN, Dir: netmodel.Inbound,
			}})
		case 1: // outbound SYN/ACK
			events = append(events, diffEvent{pkt: netmodel.Packet{
				SrcIP: dip, DstIP: sip, SrcPort: dport, DstPort: sport,
				Flags: netmodel.FlagSYN | netmodel.FlagACK, Dir: netmodel.Outbound,
			}})
		case 2: // noise the recorder must ignore identically
			events = append(events, diffEvent{pkt: netmodel.Packet{
				SrcIP: sip, DstIP: dip, SrcPort: sport, DstPort: dport,
				Flags: netmodel.FlagACK, Dir: netmodel.Inbound,
			}})
		case 3: // inbound flow record (weighted SYN replay)
			events = append(events, diffEvent{isFlow: true, flow: netmodel.FlowRecord{
				SrcIP: sip, DstIP: dip, SrcPort: sport, DstPort: dport,
				Dir: netmodel.Inbound, SYNs: flowCounts[rng.Intn(len(flowCounts))],
			}})
		case 4: // outbound flow record (weighted SYN/ACK replay)
			events = append(events, diffEvent{isFlow: true, flow: netmodel.FlowRecord{
				SrcIP: dip, DstIP: sip, SrcPort: dport, DstPort: sport,
				Dir: netmodel.Outbound, SYNACKs: flowCounts[rng.Intn(len(flowCounts))],
			}})
		}
	}
	return events
}

func feed(r *Recorder, events []diffEvent) {
	for _, e := range events {
		if e.isFlow {
			r.ObserveFlow(e.flow)
		} else {
			r.Observe(e.pkt)
		}
	}
}

// feedReference is feed through the reference applier.
func feedReference(r *Recorder, events []diffEvent) {
	for _, e := range events {
		if e.isFlow {
			r.ObserveFlowReference(e.flow)
		} else {
			r.ObserveReference(e.pkt)
		}
	}
}

// requireIdentical compares the full serialized state plus the counters
// MarshalBinary does not carry.
func requireIdentical(t *testing.T, direct, ref *Recorder, label string) {
	t.Helper()
	fb, err := direct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	lb, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb, lb) {
		t.Fatalf("%s: direct and reference serialized state diverged (%d vs %d bytes)",
			label, len(fb), len(lb))
	}
	if direct.Packets() != ref.Packets() {
		t.Fatalf("%s: packets %d vs %d", label, direct.Packets(), ref.Packets())
	}
	if direct.MemoryAccesses() != ref.MemoryAccesses() {
		t.Fatalf("%s: memory accesses %d vs %d", label, direct.MemoryAccesses(), ref.MemoryAccesses())
	}
}

// TestDifferentialSequential drives both paths with identical mixed
// packet/flow streams across several seeds and requires byte-identical
// state.
func TestDifferentialSequential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 42} {
		events := diffStream(seed, 4000)
		direct, ref := diffRecorders(t, 0xd1ff)
		feed(direct, events)
		feedReference(ref, events)
		requireIdentical(t, direct, ref, "sequential")
	}
}

// TestDifferentialEgress covers the direction-flipped orientation.
func TestDifferentialEgress(t *testing.T) {
	cfg := TestRecorderConfig(0xe9e9)
	cfg.Orientation = Egress
	direct, err := NewRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := diffStream(9, 4000)
	feed(direct, events)
	feedReference(ref, events)
	requireIdentical(t, direct, ref, "egress")
}

// TestDifferentialCombine splits one stream across three "routers" per
// path, merges each path's routers with COMBINE, and requires the
// aggregates to be byte-identical — the multi-router path.
func TestDifferentialCombine(t *testing.T) {
	const routers = 3
	events := diffStream(7, 6000)
	var directR, refR []*Recorder
	for i := 0; i < routers; i++ {
		f, l := diffRecorders(t, 0xc0fe)
		directR, refR = append(directR, f), append(refR, l)
	}
	for i, e := range events {
		r := i % routers
		if e.isFlow {
			directR[r].ObserveFlow(e.flow)
			refR[r].ObserveFlowReference(e.flow)
		} else {
			directR[r].Observe(e.pkt)
			refR[r].ObserveReference(e.pkt)
		}
	}
	if err := directR[0].Merge(directR[1:]...); err != nil {
		t.Fatal(err)
	}
	if err := refR[0].Merge(refR[1:]...); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, directR[0], refR[0], "combine")
}

// TestDifferentialDetectorAlerts runs the full detector (all three
// phases) over a multi-attack trace through both paths and requires
// identical alert output in every interval.
func TestDifferentialDetectorAlerts(t *testing.T) {
	cfg := trace.Config{
		Seed:            1212,
		Start:           time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC),
		Interval:        time.Minute,
		Intervals:       6,
		InternalPrefix:  0x81690000,
		Servers:         30,
		BackgroundFlows: 400,
		OutboundFlows:   80,
		FailRate:        0.04,
		Attacks: []trace.Attack{
			{Type: trace.SYNFlood, Spoofed: true, Victim: 0x8169c801,
				Ports: []uint16{80}, StartInterval: 1, EndInterval: 4, Rate: 400,
				ResponseRate: 0.1, Cause: "flood"},
			{Type: trace.HorizontalScan, Attackers: []netmodel.IPv4{0x0a141401},
				Victim: 0x81698000, Ports: []uint16{445}, Targets: 600,
				StartInterval: 2, EndInterval: 4, Rate: 600, Cause: "hscan"},
		},
	}
	mkDet := func() *Detector {
		d, err := NewDetector(TestRecorderConfig(0xa1e7), DetectorConfig{Threshold: 60})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	directRes := runTrace(t, mkDet(), cfg)
	ref := mkDet()
	refRes := runTraceVia(t, ref, cfg, ref.Recorder().ObserveReference)
	if len(directRes) != len(refRes) {
		t.Fatalf("interval counts differ: %d vs %d", len(directRes), len(refRes))
	}
	for i := range directRes {
		f, l := directRes[i], refRes[i]
		render := func(alerts []Alert) []string {
			out := make([]string, len(alerts))
			for j, a := range alerts {
				out[j] = a.String()
			}
			return out
		}
		for _, phase := range []struct {
			name string
			f, l []Alert
		}{
			{"raw", f.Raw, l.Raw},
			{"phase2", f.Phase2, l.Phase2},
			{"final", f.Final, l.Final},
		} {
			fa, la := render(phase.f), render(phase.l)
			if len(fa) != len(la) {
				t.Fatalf("interval %d %s: %d vs %d alerts", i, phase.name, len(fa), len(la))
			}
			for j := range fa {
				if fa[j] != la[j] {
					t.Fatalf("interval %d %s alert %d: %q vs %q", i, phase.name, j, fa[j], la[j])
				}
			}
		}
	}
}

// TestDifferentialMarshalRoundTripKeepsEngineWorking ensures a recorder
// that loaded serialized state keeps producing direct updates identical
// to reference ones (the plans are re-sized after unmarshal).
func TestDifferentialMarshalRoundTripKeepsEngineWorking(t *testing.T) {
	direct, ref := diffRecorders(t, 0xbeef)
	pre := diffStream(11, 1000)
	feed(direct, pre)
	feedReference(ref, pre)
	blob, err := direct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewRecorder(TestRecorderConfig(0xbeef))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	restored.in.accesses = ref.MemoryAccesses()
	post := diffStream(12, 1000)
	feed(restored, post)
	feedReference(ref, post)
	requireIdentical(t, restored, ref, "post-restore")
}
