package core

import (
	"testing"
	"time"

	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/trace"
)

func testDetector(t *testing.T) *Detector {
	t.Helper()
	d, err := NewDetector(TestRecorderConfig(0xfeed), DetectorConfig{Threshold: 60})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runTrace streams a whole trace through the detector, returning all
// per-interval results.
func runTrace(t *testing.T, d *Detector, cfg trace.Config) []IntervalResult {
	t.Helper()
	return runTraceVia(t, d, cfg, d.Observe)
}

// runTraceVia is runTrace with every packet recorded through observe.
func runTraceVia(t *testing.T, d *Detector, cfg trace.Config, observe func(netmodel.Packet)) []IntervalResult {
	t.Helper()
	g, err := trace.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]IntervalResult, 0, cfg.Intervals)
	for i := 0; i < cfg.Intervals; i++ {
		pkts, err := g.GenerateInterval(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			observe(p)
		}
		res, err := d.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	return results
}

// dedup collects distinct alert keys of one type across a phase selector.
func dedup(results []IntervalResult, phase func(IntervalResult) []Alert, typ AlertType) map[AlertKey]Alert {
	out := map[AlertKey]Alert{}
	for _, r := range results {
		for _, a := range phase(r) {
			if a.Type == typ {
				out[a.Key()] = a
			}
		}
	}
	return out
}

func raw(r IntervalResult) []Alert    { return r.Raw }
func phase2(r IntervalResult) []Alert { return r.Phase2 }
func final(r IntervalResult) []Alert  { return r.Final }

func baseTraceConfig(seed int64, intervals int) trace.Config {
	return trace.Config{
		Seed:            seed,
		Start:           time.Date(2005, 5, 10, 0, 0, 0, 0, time.UTC),
		Interval:        time.Minute,
		Intervals:       intervals,
		InternalPrefix:  netmodel.MustParseIPv4("129.105.0.0"),
		Servers:         40,
		BackgroundFlows: 1200,
		OutboundFlows:   200,
		FailRate:        0.04,
	}
}

func TestQuietTrafficRaisesNoAlerts(t *testing.T) {
	d := testDetector(t)
	results := runTrace(t, d, baseTraceConfig(11, 10))
	for _, r := range results {
		if len(r.Raw) != 0 {
			t.Fatalf("interval %d: %d false raw alerts: %v", r.Interval, len(r.Raw), r.Raw)
		}
	}
}

func TestDetectsSpoofedSYNFlood(t *testing.T) {
	cfg := baseTraceConfig(12, 10)
	victim := netmodel.MustParseIPv4("129.105.200.5")
	cfg.Attacks = []trace.Attack{{
		Type: trace.SYNFlood, Spoofed: true, Victim: victim, Ports: []uint16{80},
		StartInterval: 3, EndInterval: 8, Rate: 600, ResponseRate: 0.12, Cause: "flood",
	}}
	d := testDetector(t)
	results := runTrace(t, d, cfg)
	floods := dedup(results, final, AlertSYNFlood)
	if len(floods) != 1 {
		t.Fatalf("final floods = %d (%v), want 1", len(floods), floods)
	}
	for _, a := range floods {
		if a.DIP != victim || a.Port != 80 {
			t.Errorf("flood victim %s:%d, want %s:80", a.DIP, a.Port, victim)
		}
		if !a.Spoofed {
			t.Error("spoofed flood not marked spoofed")
		}
	}
	// No scan false positives anywhere.
	if n := len(dedup(results, final, AlertHScan)) + len(dedup(results, final, AlertVScan)); n != 0 {
		t.Errorf("%d scan false positives alongside the flood", n)
	}
}

func TestDetectsNonSpoofedFloodWithAttribution(t *testing.T) {
	cfg := baseTraceConfig(13, 10)
	attacker := netmodel.MustParseIPv4("198.51.100.3")
	victim := netmodel.MustParseIPv4("129.105.210.9")
	cfg.Attacks = []trace.Attack{{
		Type: trace.SYNFlood, Attackers: []netmodel.IPv4{attacker}, Victim: victim,
		Ports: []uint16{443}, StartInterval: 2, EndInterval: 8, Rate: 600,
		ResponseRate: 0.1, Cause: "flood",
	}}
	d := testDetector(t)
	results := runTrace(t, d, cfg)
	floods := dedup(results, final, AlertSYNFlood)
	if len(floods) != 1 {
		t.Fatalf("final floods = %d, want 1", len(floods))
	}
	for _, a := range floods {
		if a.Spoofed {
			t.Error("non-spoofed flood marked spoofed")
		}
		if a.SIP != attacker {
			t.Errorf("attributed attacker %s, want %s", a.SIP, attacker)
		}
	}
}

func TestDetectsHorizontalScan(t *testing.T) {
	cfg := baseTraceConfig(14, 10)
	scanner := netmodel.MustParseIPv4("203.0.113.77")
	cfg.Attacks = []trace.Attack{{
		Type: trace.HorizontalScan, Attackers: []netmodel.IPv4{scanner},
		Victim: netmodel.MustParseIPv4("129.105.0.0"), Ports: []uint16{1433},
		Targets: 2000, StartInterval: 3, EndInterval: 8, Rate: 200,
		ResponseRate: 0.02, Cause: "SQLSnake",
	}}
	d := testDetector(t)
	results := runTrace(t, d, cfg)
	hscans := dedup(results, final, AlertHScan)
	if len(hscans) != 1 {
		t.Fatalf("final hscans = %d (%v), want 1", len(hscans), hscans)
	}
	for _, a := range hscans {
		if a.SIP != scanner || a.Port != 1433 {
			t.Errorf("hscan = %s port %d, want %s port 1433", a.SIP, a.Port, scanner)
		}
		if a.FanoutEstimate < 10 {
			t.Errorf("fanout estimate %d suspiciously low for a 2000-host sweep", a.FanoutEstimate)
		}
	}
	if n := len(dedup(results, final, AlertSYNFlood)); n != 0 {
		t.Errorf("hscan produced %d flood false positives", n)
	}
}

func TestDetectsVerticalScan(t *testing.T) {
	cfg := baseTraceConfig(15, 10)
	scanner := netmodel.MustParseIPv4("203.0.113.88")
	victim := netmodel.MustParseIPv4("129.105.140.14")
	ports := make([]uint16, 500)
	for i := range ports {
		ports[i] = uint16(1 + i)
	}
	cfg.Attacks = []trace.Attack{{
		Type: trace.VerticalScan, Attackers: []netmodel.IPv4{scanner}, Victim: victim,
		Ports: ports, StartInterval: 3, EndInterval: 8, Rate: 150,
		ResponseRate: 0.02, Cause: "survey",
	}}
	d := testDetector(t)
	results := runTrace(t, d, cfg)
	vscans := dedup(results, final, AlertVScan)
	if len(vscans) != 1 {
		t.Fatalf("final vscans = %d (%v), want 1", len(vscans), vscans)
	}
	for _, a := range vscans {
		if a.SIP != scanner || a.DIP != victim {
			t.Errorf("vscan = %s->%s, want %s->%s", a.SIP, a.DIP, scanner, victim)
		}
	}
}

func TestPhase2RemovesStealthFloodVScanFP(t *testing.T) {
	// A multi-port flood under the per-{DIP,Dport} threshold appears as a
	// raw vertical scan; the 2D port-concentration test must remove it.
	cfg := baseTraceConfig(16, 10)
	attacker := netmodel.MustParseIPv4("198.51.100.44")
	victim := netmodel.MustParseIPv4("129.105.220.1")
	cfg.Attacks = []trace.Attack{{
		Type: trace.SYNFlood, Attackers: []netmodel.IPv4{attacker}, Victim: victim,
		Ports: []uint16{8000, 8001, 8002}, StartInterval: 3, EndInterval: 8,
		Rate: 144, ResponseRate: 0.1, Cause: "stealth",
	}}
	d := testDetector(t)
	results := runTrace(t, d, cfg)
	rawV := dedup(results, raw, AlertVScan)
	p2V := dedup(results, phase2, AlertVScan)
	if len(rawV) == 0 {
		t.Fatal("stealth flood did not produce the expected raw vscan FP")
	}
	if len(p2V) != 0 {
		t.Fatalf("phase 2 kept %d vscan FPs: %v", len(p2V), p2V)
	}
}

func TestPhase2RemovesClusterFloodHScanFP(t *testing.T) {
	cfg := baseTraceConfig(17, 10)
	attacker := netmodel.MustParseIPv4("198.51.100.45")
	cfg.Attacks = []trace.Attack{{
		Type: trace.SYNFlood, Attackers: []netmodel.IPv4{attacker},
		Victim: netmodel.MustParseIPv4("129.105.230.1"), Ports: []uint16{443},
		Targets: 3, StartInterval: 3, EndInterval: 8, Rate: 144,
		ResponseRate: 0.1, Cause: "cluster",
	}}
	d := testDetector(t)
	results := runTrace(t, d, cfg)
	rawH := dedup(results, raw, AlertHScan)
	p2H := dedup(results, phase2, AlertHScan)
	if len(rawH) == 0 {
		t.Fatal("cluster flood did not produce the expected raw hscan FP")
	}
	if len(p2H) != 0 {
		t.Fatalf("phase 2 kept %d hscan FPs: %v", len(p2H), p2H)
	}
	// A genuine hscan must NOT be removed (guards against an over-eager
	// concentration test) — covered by TestDetectsHorizontalScan.
}

func TestPhase3RemovesMisconfig(t *testing.T) {
	cfg := baseTraceConfig(18, 10)
	dark := netmodel.MustParseIPv4("129.105.3.3")
	cfg.Attacks = []trace.Attack{{
		Type: trace.Misconfig, Victim: dark, Ports: []uint16{80},
		StartInterval: 2, EndInterval: 9, Rate: 240, Cause: "stale DNS",
	}}
	d := testDetector(t)
	results := runTrace(t, d, cfg)
	if len(dedup(results, raw, AlertSYNFlood)) == 0 {
		t.Fatal("misconfig did not produce the expected raw flooding FP")
	}
	if n := len(dedup(results, final, AlertSYNFlood)); n != 0 {
		t.Fatalf("phase 3 kept %d flooding FPs for a dark destination", n)
	}
}

func TestPhase3RemovesTransientCongestion(t *testing.T) {
	cfg := baseTraceConfig(19, 10)
	server := netmodel.MustParseIPv4("129.105.250.7")
	// Make the server active first so only the ratio/persistence filters
	// can save us, then congest it for one interval.
	cfg.Attacks = []trace.Attack{
		{
			Type: trace.FlashCrowd, Victim: server, Ports: []uint16{80},
			StartInterval: 0, EndInterval: 9, Rate: 100, ResponseRate: 0.97,
			Cause: "steady popular service",
		},
		{
			Type: trace.Congestion, Victim: server, Ports: []uint16{80},
			StartInterval: 5, EndInterval: 5, Rate: 360, ResponseRate: 0.45,
			Cause: "burst",
		},
	}
	d := testDetector(t)
	results := runTrace(t, d, cfg)
	if n := len(dedup(results, final, AlertSYNFlood)); n != 0 {
		t.Fatalf("transient congestion produced %d final flood alerts", n)
	}
}

func TestFlashCrowdNotAlerted(t *testing.T) {
	cfg := baseTraceConfig(20, 8)
	cfg.Attacks = []trace.Attack{{
		Type: trace.FlashCrowd, Victim: netmodel.MustParseIPv4("129.105.199.9"),
		Ports: []uint16{80}, StartInterval: 4, EndInterval: 6, Rate: 800,
		ResponseRate: 0.95, Cause: "slashdotted",
	}}
	d := testDetector(t)
	results := runTrace(t, d, cfg)
	for _, r := range results {
		if len(r.Final) != 0 {
			t.Fatalf("flash crowd alerted: %v", r.Final)
		}
	}
}

func TestMixedAttacksSeparatedCorrectly(t *testing.T) {
	// The paper's central claim: a *mixture* of attacks is detected and
	// correctly typed simultaneously.
	cfg := baseTraceConfig(21, 12)
	floodVictim := netmodel.MustParseIPv4("129.105.201.1")
	scanner := netmodel.MustParseIPv4("203.0.113.50")
	vscanner := netmodel.MustParseIPv4("203.0.113.60")
	vvictim := netmodel.MustParseIPv4("129.105.202.2")
	ports := make([]uint16, 400)
	for i := range ports {
		ports[i] = uint16(100 + i)
	}
	cfg.Attacks = []trace.Attack{
		{Type: trace.SYNFlood, Spoofed: true, Victim: floodVictim, Ports: []uint16{80},
			StartInterval: 3, EndInterval: 10, Rate: 700, ResponseRate: 0.1, Cause: "flood"},
		{Type: trace.HorizontalScan, Attackers: []netmodel.IPv4{scanner},
			Victim: netmodel.MustParseIPv4("129.105.0.0"), Ports: []uint16{445},
			Targets: 3000, StartInterval: 3, EndInterval: 10, Rate: 250, ResponseRate: 0.02, Cause: "Sasser"},
		{Type: trace.VerticalScan, Attackers: []netmodel.IPv4{vscanner}, Victim: vvictim,
			Ports: ports, StartInterval: 3, EndInterval: 10, Rate: 150, ResponseRate: 0.02, Cause: "survey"},
	}
	d := testDetector(t)
	results := runTrace(t, d, cfg)

	floods := dedup(results, final, AlertSYNFlood)
	hscans := dedup(results, final, AlertHScan)
	vscans := dedup(results, final, AlertVScan)
	if len(floods) != 1 || len(hscans) != 1 || len(vscans) != 1 {
		t.Fatalf("mixture separation failed: floods=%d hscans=%d vscans=%d",
			len(floods), len(hscans), len(vscans))
	}
	for _, a := range floods {
		if a.DIP != floodVictim {
			t.Errorf("flood victim %s", a.DIP)
		}
	}
	for _, a := range hscans {
		if a.SIP != scanner {
			t.Errorf("hscan source %s", a.SIP)
		}
	}
	for _, a := range vscans {
		if a.SIP != vscanner || a.DIP != vvictim {
			t.Errorf("vscan %s->%s", a.SIP, a.DIP)
		}
	}
}

func TestAblationPhasesOff(t *testing.T) {
	cfg := baseTraceConfig(22, 10)
	dark := netmodel.MustParseIPv4("129.105.4.4")
	cfg.Attacks = []trace.Attack{{
		Type: trace.Misconfig, Victim: dark, Ports: []uint16{80},
		StartInterval: 2, EndInterval: 9, Rate: 240, Cause: "stale DNS",
	}}
	d, err := NewDetector(TestRecorderConfig(0xfeed), DetectorConfig{
		Threshold: 60, DisablePhase2: true, DisablePhase3: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	results := runTrace(t, d, cfg)
	// With phase 3 off, the misconfig FP must survive to Final.
	if n := len(dedup(results, final, AlertSYNFlood)); n == 0 {
		t.Fatal("phase-3 ablation still filtered the misconfig FP")
	}
}

func TestDetectorConfigValidation(t *testing.T) {
	bad := []DetectorConfig{
		{Threshold: -1},
		{Alpha: 2},
		{TwoDPhi: 1.5},
		{MinSynRatio: 0.5},
	}
	for i, cfg := range bad {
		if _, err := NewDetector(TestRecorderConfig(1), cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewRecorder(RecorderConfig{}); err == nil {
		t.Error("zero recorder config accepted")
	}
}

func TestPaperMemoryBudget(t *testing.T) {
	rec, err := NewRecorder(PaperRecorderConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	mb := float64(rec.MemoryBytes()) / (1 << 20)
	if mb < 12 || mb > 15 {
		t.Errorf("paper-config recorder uses %.1f MB, paper says ≈13.2 MB", mb)
	}
}

func TestRecorderMergeMatchesSingle(t *testing.T) {
	// Per-packet load balancing over three routers (paper Figure 3):
	// merged recorders must equal a single recorder that saw everything.
	rcfg := TestRecorderConfig(0xabc)
	single, err := NewRecorder(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	routers := make([]*Recorder, 3)
	for i := range routers {
		if routers[i], err = NewRecorder(rcfg); err != nil {
			t.Fatal(err)
		}
	}
	cfg := baseTraceConfig(23, 1)
	g, err := trace.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := g.GenerateInterval(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pkts {
		single.Observe(p)
		routers[i%3].Observe(p)
	}
	merged, err := NewRecorder(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.Merge(routers...); err != nil {
		t.Fatal(err)
	}
	if merged.Packets() != single.Packets() {
		t.Errorf("merged packets %d, single %d", merged.Packets(), single.Packets())
	}
	// Spot-check bucket-level equality through estimates of live keys.
	for _, p := range pkts[:50] {
		if !p.Flags.IsSYN() {
			continue
		}
		k := netmodel.PackDIPDport(p.DstIP, p.DstPort)
		if a, b := merged.RSDipDport.Estimate(k), single.RSDipDport.Estimate(k); a != b {
			t.Fatalf("merged estimate %f != single %f", a, b)
		}
	}
}

func TestRecorderMergeRejectsIncompatible(t *testing.T) {
	a, err := NewRecorder(TestRecorderConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRecorder(TestRecorderConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err == nil {
		t.Error("merge of different seeds accepted")
	}
}

func TestRecorderMarshalRoundTrip(t *testing.T) {
	rcfg := TestRecorderConfig(0xdead)
	rec, err := NewRecorder(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseTraceConfig(24, 1)
	g, err := trace.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := g.GenerateInterval(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		rec.Observe(p)
	}
	data, err := rec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := NewRecorder(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Packets() != rec.Packets() {
		t.Error("packet count not preserved")
	}
	for _, p := range pkts[:50] {
		if !p.Flags.IsSYN() {
			continue
		}
		k := netmodel.PackSIPDIP(p.SrcIP, p.DstIP)
		if a, b := back.RSSipDip.Estimate(k), rec.RSSipDip.Estimate(k); a != b {
			t.Fatal("estimates differ after round trip")
		}
	}
	if err := back.UnmarshalBinary(data[:20]); err == nil {
		t.Error("truncated recorder data accepted")
	}
	if err := back.UnmarshalBinary(append(data, 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestDoSResilienceBoundedState(t *testing.T) {
	// A spoofed flood with a fresh source per packet must not grow any
	// per-flow state, and a real concurrent scan must still be detected —
	// the paper's §3.5 resilience argument.
	cfg := baseTraceConfig(25, 8)
	scanner := netmodel.MustParseIPv4("203.0.113.99")
	cfg.Attacks = []trace.Attack{
		{Type: trace.SYNFlood, Spoofed: true, Victim: netmodel.MustParseIPv4("129.105.240.1"),
			Ports: []uint16{80}, StartInterval: 2, EndInterval: 7, Rate: 5000,
			ResponseRate: 0.05, Cause: "IDS-directed flood"},
		{Type: trace.HorizontalScan, Attackers: []netmodel.IPv4{scanner},
			Victim: netmodel.MustParseIPv4("129.105.0.0"), Ports: []uint16{22},
			Targets: 2000, StartInterval: 2, EndInterval: 7, Rate: 200,
			ResponseRate: 0.02, Cause: "scan under cover of flood"},
	}
	d := testDetector(t)
	memBefore := d.Recorder().MemoryBytes()
	results := runTrace(t, d, cfg)
	if got := d.Recorder().MemoryBytes(); got != memBefore {
		t.Errorf("recorder memory grew from %d to %d under flood", memBefore, got)
	}
	if len(d.streaks) > 64 {
		t.Errorf("streak map grew to %d entries", len(d.streaks))
	}
	hscans := dedup(results, final, AlertHScan)
	found := false
	for k := range hscans {
		if k.SIP == scanner {
			found = true
		}
	}
	if !found {
		t.Error("scan hidden by spoofed flood was not detected")
	}
	floods := dedup(results, final, AlertSYNFlood)
	if len(floods) == 0 {
		t.Error("the flood itself went undetected")
	}
}

func TestObserveFlowEquivalentToPackets(t *testing.T) {
	rcfg := TestRecorderConfig(0x77)
	a, err := NewRecorder(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRecorder(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	src := netmodel.MustParseIPv4("8.8.8.8")
	dst := netmodel.MustParseIPv4("129.105.9.9")
	for i := 0; i < 5; i++ {
		a.Observe(netmodel.Packet{
			SrcIP: src, DstIP: dst, SrcPort: 1000 + uint16(i), DstPort: 80,
			Flags: netmodel.FlagSYN, Dir: netmodel.Inbound,
		})
	}
	a.Observe(netmodel.Packet{
		SrcIP: dst, DstIP: src, SrcPort: 80, DstPort: 1000,
		Flags: netmodel.FlagSYN | netmodel.FlagACK, Dir: netmodel.Outbound,
	})
	b.ObserveFlow(netmodel.FlowRecord{
		SrcIP: src, DstIP: dst, SrcPort: 1000, DstPort: 80,
		Dir: netmodel.Inbound, SYNs: 5,
	})
	b.ObserveFlow(netmodel.FlowRecord{
		SrcIP: dst, DstIP: src, SrcPort: 80, DstPort: 1000,
		Dir: netmodel.Outbound, SYNACKs: 1,
	})
	k := netmodel.PackDIPDport(dst, 80)
	if ea, eb := a.RSDipDport.Estimate(k), b.RSDipDport.Estimate(k); ea != eb {
		t.Errorf("flow-record path estimate %f, packet path %f", eb, ea)
	}
	if !b.Services.Contains(k) {
		t.Error("flow path did not learn the active service")
	}
}

func TestMemoryAccessesPerPacketConstant(t *testing.T) {
	rec, err := NewRecorder(TestRecorderConfig(0x99))
	if err != nil {
		t.Fatal(err)
	}
	pkt := netmodel.Packet{
		SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4,
		Flags: netmodel.FlagSYN, Dir: netmodel.Inbound,
	}
	rec.Observe(pkt)
	per := rec.MemoryAccesses()
	// 3 RS × 6 stages + 3 verifiers × 6 + OS × 6 + 2 2D × 5 = 52.
	if per != 52 {
		t.Errorf("accesses per SYN = %d, want 52", per)
	}
	for i := 0; i < 99; i++ {
		rec.Observe(pkt)
	}
	if rec.MemoryAccesses() != 100*per {
		t.Error("per-packet accesses not constant")
	}
}

func TestAlertStringsAndKeys(t *testing.T) {
	alerts := []Alert{
		{Type: AlertSYNFlood, DIP: 5, Port: 80, Spoofed: true, Estimate: 100},
		{Type: AlertSYNFlood, SIP: 9, DIP: 5, Port: 80, Estimate: 100},
		{Type: AlertHScan, SIP: 7, Port: 445, FanoutEstimate: 30},
		{Type: AlertVScan, SIP: 7, DIP: 8, FanoutEstimate: 50},
	}
	for _, a := range alerts {
		if a.String() == "" || a.Type.String() == "" {
			t.Error("empty rendering")
		}
	}
	if alerts[0].Key() == alerts[1].Key() {
		t.Error("different SIPs must produce different keys")
	}
	dup := alerts[2]
	dup.Interval = 99
	if dup.Key() != alerts[2].Key() {
		t.Error("interval must not affect the alert key")
	}
}
