package core

// Differential harness for the flow-aggregation cache, in the mold of
// differential_test.go: every test drives one cached and one cache-less
// recorder (or detector) with identical input and requires the complete
// serialized state — every sketch counter, every Bloom bit, every total,
// the memory-access budget — to match byte for byte. The cache sizes are
// deliberately small so the streams force heavy eviction traffic: the
// proof has to cover the evict-flush path, not just the rotation drain.

import (
	"bytes"
	"testing"
	"time"

	"github.com/hifind/hifind/internal/flowcache"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/trace"
)

// diffCacheRecorders builds one cached and one cache-less recorder.
// Everything but the FlowCache field matches, so any state divergence
// is the cache's fault.
func diffCacheRecorders(t *testing.T, seed uint64, entries int) (cached, plain *Recorder) {
	t.Helper()
	ccfg := TestRecorderConfig(seed)
	ccfg.FlowCache = entries
	var err error
	if cached, err = NewRecorder(ccfg); err != nil {
		t.Fatal(err)
	}
	if plain, err = NewRecorder(TestRecorderConfig(seed)); err != nil {
		t.Fatal(err)
	}
	return cached, plain
}

// requireSameState is requireIdentical without the applier framing:
// cached and cache-less recorders differ in configuration, so the
// comparison is serialized bytes plus the unserialized totals.
func requireSameState(t *testing.T, cached, plain *Recorder, label string) {
	t.Helper()
	cb, err := cached.MarshalBinary() // flushes the cache first
	if err != nil {
		t.Fatal(err)
	}
	pb, err := plain.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cb, pb) {
		t.Fatalf("%s: cached and cache-less serialized state diverged (%d vs %d bytes)",
			label, len(cb), len(pb))
	}
	if cached.Packets() != plain.Packets() {
		t.Fatalf("%s: packets %d vs %d", label, cached.Packets(), plain.Packets())
	}
	if cached.MemoryAccesses() != plain.MemoryAccesses() {
		t.Fatalf("%s: memory accesses %d vs %d", label, cached.MemoryAccesses(), plain.MemoryAccesses())
	}
}

// TestCacheDifferentialSequential drives cached and cache-less
// recorders with identical mixed packet/flow streams across several
// seeds and cache sizes (down to one probe window, where nearly every
// add evicts) and requires byte-identical state.
func TestCacheDifferentialSequential(t *testing.T) {
	for _, entries := range []int{8, 64, 1024} {
		for _, seed := range []int64{1, 2, 3, 42} {
			events := diffStream(seed, 4000)
			cached, plain := diffCacheRecorders(t, 0xcace, entries)
			feed(cached, events)
			feed(plain, events)
			requireSameState(t, cached, plain, "sequential")
			if st := cached.CacheStats(); st.Hits+st.Misses == 0 {
				t.Fatal("cache saw no traffic — the hook is not wired")
			}
		}
	}
}

// TestCacheDifferentialEgress covers the direction-flipped orientation,
// where ObserveFlow rewrites the record before the cache add.
func TestCacheDifferentialEgress(t *testing.T) {
	ccfg := TestRecorderConfig(0xe9e9)
	ccfg.Orientation = Egress
	ccfg.FlowCache = 64
	cached, err := NewRecorder(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := TestRecorderConfig(0xe9e9)
	pcfg.Orientation = Egress
	plain, err := NewRecorder(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	events := diffStream(9, 4000)
	feed(cached, events)
	feed(plain, events)
	requireSameState(t, cached, plain, "egress")
}

// TestCacheDifferentialCombine splits one stream across three "routers"
// per configuration, merges each trio with COMBINE — which must flush
// every operand's cache — and requires byte-identical aggregates.
func TestCacheDifferentialCombine(t *testing.T) {
	const routers = 3
	events := diffStream(7, 6000)
	var cachedR, plainR []*Recorder
	for i := 0; i < routers; i++ {
		c, p := diffCacheRecorders(t, 0xc0fe, 64)
		cachedR, plainR = append(cachedR, c), append(plainR, p)
	}
	for i, e := range events {
		r := i % routers
		if e.isFlow {
			cachedR[r].ObserveFlow(e.flow)
			plainR[r].ObserveFlow(e.flow)
		} else {
			cachedR[r].Observe(e.pkt)
			plainR[r].Observe(e.pkt)
		}
	}
	// Merge with entries still pending in every cache: the merge itself
	// must drain them.
	if err := cachedR[0].Merge(cachedR[1:]...); err != nil {
		t.Fatal(err)
	}
	if err := plainR[0].Merge(plainR[1:]...); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, cachedR[0], plainR[0], "combine")
	// The merged recorder carries every router's cache traffic.
	st := cachedR[0].CacheStats()
	if st.Hits+st.Misses == 0 || st.Flushes == 0 {
		t.Fatalf("merged cache stats lost operand traffic: %+v", st)
	}
}

// TestCacheConfigMismatchFailsLoudly pins the Compatible contract:
// cached and cache-less recorders (and differently sized caches) must
// refuse to merge instead of silently mixing.
func TestCacheConfigMismatchFailsLoudly(t *testing.T) {
	cached, plain := diffCacheRecorders(t, 0xabcd, 64)
	if cached.Compatible(plain) {
		t.Fatal("cached and cache-less configurations report compatible")
	}
	if err := cached.Merge(plain); err == nil {
		t.Fatal("merge across cache configurations succeeded")
	}
	ccfg := TestRecorderConfig(0xabcd)
	ccfg.FlowCache = 128
	other, err := NewRecorder(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Compatible(other) {
		t.Fatal("differently sized caches report compatible")
	}
}

// TestCacheReferenceBypasses: the reference applier is the
// differential witness and must stay the plain per-packet path even
// when the configuration carries a cache.
func TestCacheReferenceBypasses(t *testing.T) {
	cached, plain := diffCacheRecorders(t, 0x1e9a, 64)
	events := diffStream(21, 2000)
	feedReference(cached, events)
	feedReference(plain, events)
	if st := cached.CacheStats(); st.Hits+st.Misses != 0 {
		t.Fatalf("reference path routed %d adds through the cache", st.Hits+st.Misses)
	}
	requireSameState(t, cached, plain, "reference-bypass")
}

// TestCacheReferenceMidStream: reference updates recorded while cached
// aggregates are still pending land beside them, and the final state
// matches a cache-less recorder fed the same mixed stream.
func TestCacheReferenceMidStream(t *testing.T) {
	cached, plain := diffCacheRecorders(t, 0x5e7e, 64)
	pre := diffStream(31, 2000)
	feed(cached, pre)
	feed(plain, pre)
	post := diffStream(32, 2000)
	feedReference(cached, post)
	feedReference(plain, post)
	requireSameState(t, cached, plain, "reference-mid-stream")
}

// TestCacheDifferentialDetectorAlerts runs the full detector (all three
// phases) over a multi-attack trace with and without the cache and
// requires identical rendered alerts in every interval — plus live
// cache diagnostics on the cached side only.
func TestCacheDifferentialDetectorAlerts(t *testing.T) {
	cfg := trace.Config{
		Seed:            3434,
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
	mkDet := func(entries int) *Detector {
		rcfg := TestRecorderConfig(0xa1e7)
		rcfg.FlowCache = entries
		d, err := NewDetector(rcfg, DetectorConfig{Threshold: 60})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cachedRes := runTrace(t, mkDet(256), cfg)
	plainRes := runTrace(t, mkDet(0), cfg)
	if len(cachedRes) != len(plainRes) {
		t.Fatalf("interval counts differ: %d vs %d", len(cachedRes), len(plainRes))
	}
	sawHits := false
	for i := range cachedRes {
		c, p := cachedRes[i], plainRes[i]
		render := func(alerts []Alert) []string {
			out := make([]string, len(alerts))
			for j, a := range alerts {
				out[j] = a.String()
			}
			return out
		}
		for _, phase := range []struct {
			name string
			c, p []Alert
		}{
			{"raw", c.Raw, p.Raw},
			{"phase2", c.Phase2, p.Phase2},
			{"final", c.Final, p.Final},
		} {
			ca, pa := render(phase.c), render(phase.p)
			if len(ca) != len(pa) {
				t.Fatalf("interval %d %s: %d vs %d alerts", i, phase.name, len(ca), len(pa))
			}
			for j := range ca {
				if ca[j] != pa[j] {
					t.Fatalf("interval %d %s alert %d: %q vs %q", i, phase.name, j, ca[j], pa[j])
				}
			}
		}
		if c.Diag.CacheHits > 0 {
			sawHits = true
		}
		if c.Diag.CacheHits+c.Diag.CacheMisses == 0 {
			t.Fatalf("interval %d: cached detector reports no cache traffic", i)
		}
		if p.Diag.CacheHits+p.Diag.CacheMisses != 0 || p.Diag.CacheFlushSeconds != 0 {
			t.Fatalf("interval %d: cache-less detector reports cache diagnostics %+v", i, p.Diag)
		}
	}
	if !sawHits {
		t.Fatal("no interval recorded a single cache hit on a background-heavy trace")
	}
}

// TestCacheMarshalRoundTripKeepsRecording: marshaling drains the cache,
// and a recorder that loaded the serialized state keeps recording
// (through its own cache) identically to a never-marshaled cache-less
// recorder.
func TestCacheMarshalRoundTripKeepsRecording(t *testing.T) {
	cached, plain := diffCacheRecorders(t, 0xbeef, 64)
	pre := diffStream(11, 1000)
	feed(cached, pre)
	feed(plain, pre)
	blob, err := cached.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if cached.CacheOccupancy() != 0 {
		t.Fatal("MarshalBinary left entries resident in the cache")
	}
	rcfg := TestRecorderConfig(0xbeef)
	rcfg.FlowCache = 64
	restored, err := NewRecorder(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	// MarshalBinary does not carry the access budget; align it so the
	// post-restore comparison still pins the exact accounting.
	restored.in.accesses = plain.MemoryAccesses()
	post := diffStream(12, 1000)
	feed(restored, post)
	feed(plain, post)
	requireSameState(t, restored, plain, "post-restore")
}

// TestCacheResetDiscards: a rotation reset throws cached aggregates
// away with the rest of the interval, leaving truly empty state.
func TestCacheResetDiscards(t *testing.T) {
	cached, plain := diffCacheRecorders(t, 0x4e5e, 64)
	events := diffStream(51, 1000)
	feed(cached, events)
	feed(plain, events)
	cached.Reset()
	plain.Reset()
	// Both sides keep their (identical) Services memory; everything
	// else — including the cached side's pending aggregates — is gone.
	// A Reset that flushed instead of discarding would leave sketch
	// counters behind and diverge here. Memory accesses are exempt from
	// this comparison: the discarded aggregates never touched sketch
	// memory, so the cached side honestly spent fewer (the budgets do
	// match at every detector rotation, which flushes first — the
	// detector differential test covers that).
	cb, err := cached.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := plain.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cb, pb) {
		t.Fatal("post-reset: cached and cache-less serialized state diverged")
	}
	if cached.Packets() != plain.Packets() {
		t.Fatalf("post-reset: packets %d vs %d", cached.Packets(), plain.Packets())
	}
	if st := cached.CacheStats(); st != (flowcache.Stats{}) {
		t.Fatalf("cache stats survive Reset: %+v", st)
	}
}
