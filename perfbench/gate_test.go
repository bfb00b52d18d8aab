package main

import (
	"io"
	"net/netip"
	"testing"
	"time"

	"github.com/hifind/hifind"
	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/netmodel"
)

func sampleResults() []core.IntervalResult {
	return []core.IntervalResult{
		{Interval: 0},
		{Interval: 1, Final: []core.Alert{
			{Type: core.AlertSYNFlood, Interval: 1, DIP: 0x81058001, Port: 80, Spoofed: true, Estimate: 540},
			{Type: core.AlertHScan, Interval: 1, SIP: 0xc6000101, Port: 445, Estimate: 120, FanoutEstimate: 97},
		}},
	}
}

func TestGateTripsOnWrongReferenceDigest(t *testing.T) {
	got := sampleResults()
	ref := intervalDigests(got)
	if n := failedIntervals(got, ref); n != 0 {
		t.Fatalf("identical results failed %d intervals", n)
	}
	wrong := append([]string(nil), ref...)
	wrong[1] = intervalDigest(core.IntervalResult{Interval: 1})
	if n := failedIntervals(got, wrong); n != 1 {
		t.Fatalf("a wrong reference digest failed %d intervals, want 1", n)
	}
}

func TestGateFailsChangedMissingExtraAndPartialIntervals(t *testing.T) {
	ref := intervalDigests(sampleResults())
	changed := sampleResults()
	changed[1].Final[0].Estimate = 541
	partial := sampleResults()
	partial[0].Partial = true
	for name, c := range map[string]struct {
		got  []core.IntervalResult
		want int
	}{
		"changed magnitude": {changed, 1},
		"missing interval":  {sampleResults()[:1], 1},
		"extra interval":    {append(sampleResults(), core.IntervalResult{Interval: 2}), 1},
		"partial interval":  {partial, 1},
	} {
		if n := failedIntervals(c.got, ref); n != c.want {
			t.Errorf("%s: %d failed intervals, want %d", name, n, c.want)
		}
	}
}

func TestGateAdoptsFirstPassAsReference(t *testing.T) {
	g := &gate{}
	g.check(pass{results: sampleResults()})
	if !g.ok() || g.attempted != 2 {
		t.Fatalf("first pass: ok=%v attempted=%d", g.ok(), g.attempted)
	}
	changed := sampleResults()
	changed[1].Final = changed[1].Final[:1]
	g.check(pass{results: changed})
	if g.ok() || g.failed != 1 || g.attempted != 4 {
		t.Fatalf("a pass differing from the first: ok=%v failed=%d attempted=%d", g.ok(), g.failed, g.attempted)
	}
	if (&gate{}).ok() {
		t.Fatal("a gate that saw no pass reports ok")
	}
}

// TestFacadeAndCoreDigestAlike checks that the same alert digests the
// same whether it arrived through the facade or from core directly.
func TestFacadeAndCoreDigestAlike(t *testing.T) {
	coreRes := core.IntervalResult{Interval: 4, Final: []core.Alert{
		{Type: core.AlertSYNFlood, Interval: 4, SIP: 0xc6000203, DIP: 0x81058002, Port: 443, Estimate: 610.5},
		{Type: core.AlertVScan, Interval: 4, SIP: 0xc6000304, DIP: 0x81050101, Estimate: 90, FanoutEstimate: 40},
		{Type: core.AlertHScan, Interval: 4, SIP: 0xc6000405, DIP: 0x81050101, Port: 22, Estimate: 130, FanoutEstimate: 120},
	}}
	addr := func(ip netmodel.IPv4) netip.Addr { return netip.AddrFrom4(ip.Octets()) }
	facadeRes := hifind.Result{Interval: 4, Final: []hifind.Alert{
		{Type: hifind.SYNFlood, Interval: 4, Attacker: addr(0xc6000203), Victim: addr(0x81058002), Port: 443, Magnitude: 610.5},
		{Type: hifind.VerticalScan, Interval: 4, Attacker: addr(0xc6000304), Victim: addr(0x81050101), Magnitude: 90, Fanout: 40},
		{Type: hifind.HorizontalScan, Interval: 4, Attacker: addr(0xc6000405), Port: 22, Magnitude: 130, Fanout: 120},
	}}
	if a, b := intervalDigest(fromCore(coreRes)), intervalDigest(fromFacade(facadeRes)); a != b {
		t.Fatal("the same alerts digest differently through the facade and through core")
	}
}

// TestIntervalRuleMatchesReplay feeds timestamps with a two-interval gap
// through source.fill and checks the cuts hifind.ReplayPcap makes for
// the same timestamps: {0s, 30s}, {61s}, {}, {185s}.
func TestIntervalRuleMatchesReplay(t *testing.T) {
	t0 := time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC)
	offsets := []time.Duration{0, 30 * time.Second, 61 * time.Second, 185 * time.Second}
	i := 0
	src := &source[time.Duration]{next: func() (time.Duration, time.Time, error) {
		if i == len(offsets) {
			return 0, time.Time{}, io.EOF
		}
		i++
		return offsets[i-1], t0.Add(offsets[i-1]), nil
	}}
	var sizes []int
	for {
		more, err := src.fill()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		sizes = append(sizes, len(src.buf))
	}
	want := []int{2, 1, 0, 1}
	if len(sizes) != len(want) {
		t.Fatalf("intervals %v, want %v", sizes, want)
	}
	for k := range want {
		if sizes[k] != want[k] {
			t.Fatalf("intervals %v, want %v", sizes, want)
		}
	}
}

// TestEveryPathMatchesReference replays a short trace through every
// workload's timed and traced pass and checks each against the
// sequential uncached reference, then checks that the gate catches a
// tampered reference.
func TestEveryPathMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a trace through every workload")
	}
	const seed, ivs = 7, 10
	digests := map[string]string{}
	for _, w := range workloads {
		if w.name == "attack-storm" {
			continue // nu-pcap's path on a heavier trace
		}
		t.Run(w.name, func(t *testing.T) {
			in, err := makeInput(w, seed, ivs)
			if err != nil {
				t.Fatal(err)
			}
			ref, refResults, err := reference(w, in)
			if err != nil {
				t.Fatal(err)
			}
			if s := scoreResults(refResults, in.attacks); s.TrueAttacks == 0 || s.TruePositives == 0 {
				t.Fatalf("reference detects nothing: %+v", s)
			}
			p := timedPass(w, in)
			tp := traced(w, in, newTracer())
			for name, p := range map[string]pass{"timed": p, "traced": tp.pass} {
				if p.err != nil {
					t.Fatalf("%s pass: %v", name, p.err)
				}
				if n := failedIntervals(p.results, ref); n != 0 {
					t.Fatalf("%s pass fails %d of %d intervals", name, n, len(ref))
				}
			}
			if len(p.latencyMS) != len(ref) || len(p.segMS) != len(ref) {
				t.Fatalf("%d latencies and %d segments for %d intervals", len(p.latencyMS), len(p.segMS), len(ref))
			}
			tampered := append([]string(nil), ref...)
			tampered[len(tampered)/2] = intervalDigest(core.IntervalResult{Interval: -1})
			if n := failedIntervals(p.results, tampered); n != 1 {
				t.Fatalf("tampered reference failed %d intervals, want 1", n)
			}
			if w.netflow {
				return
			}
			shared := ref
			if w.mode == sharded {
				shared = ref[:len(ref)-1]
			}
			digests[w.name] = runDigest(shared)
		})
	}
	if digests["nu-pcap"] == "" || digests["nu-sharded"] != digests["nu-pcap"] || digests["multirouter"] != digests["nu-pcap"] {
		t.Fatalf("shared-trace workloads disagree: %v", digests)
	}
}
