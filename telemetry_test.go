package hifind

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"github.com/hifind/hifind/internal/telemetry"
)

func synPacket(src, dst netip.Addr, dport uint16) Packet {
	return Packet{
		Timestamp: time.Unix(0, 0),
		SrcIP:     src,
		DstIP:     dst,
		SrcPort:   40000,
		DstPort:   dport,
		SYN:       true,
		Dir:       Inbound,
	}
}

func TestDetectorTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	var events []telemetry.Event
	sink := sinkFunc(func(ev telemetry.Event) { events = append(events, ev) })
	det, err := New(WithCompactSketches(), WithTelemetry(reg), WithAlertSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	src := netip.MustParseAddr("10.1.2.3")
	dst := netip.MustParseAddr("192.168.0.9")
	for i := 0; i < 10; i++ {
		det.Observe(synPacket(src, dst, 80))
	}
	det.Observe(Packet{SrcIP: netip.MustParseAddr("::1"), DstIP: netip.MustParseAddr("::2"), SYN: true, Dir: Inbound})
	if _, err := det.EndInterval(); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"hifind_packets_observed_total 10",
		"hifind_dropped_non_ipv4_total 1",
		"hifind_intervals_total 1",
		`hifind_sketch_occupancy_ratio{sketch="rs_dip_dport"}`,
		`hifind_inference_candidates{step="flood"}`,
		"hifind_detection_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Occupancy must be nonzero: ten packets were recorded before rotation.
	if strings.Contains(out, `hifind_sketch_occupancy_ratio{sketch="rs_dip_dport"} 0`+"\n") {
		t.Error("rs_dip_dport occupancy stayed zero despite recorded traffic")
	}
	if len(events) == 0 || events[len(events)-1].Kind != "interval" {
		t.Fatalf("sink must end with an interval summary, got %+v", events)
	}
}

func TestParallelTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	par, err := New(WithCompactSketches(), WithWorkers(2), WithBatchSize(8),
		WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	src := netip.MustParseAddr("10.9.9.9")
	dst := netip.MustParseAddr("192.168.1.1")
	for i := 0; i < 100; i++ {
		par.Observe(synPacket(src, dst, 443))
	}
	if _, err := par.EndInterval(); err != nil {
		t.Fatal(err)
	}
	if _, err := par.Close(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap["hifind_packets_observed_total"] != int64(100) {
		t.Fatalf("packet counter: %v", snap["hifind_packets_observed_total"])
	}
	if n, ok := snap["pipeline_batches_total"].(int64); !ok || n == 0 {
		t.Fatalf("pipeline batches counter: %v", snap["pipeline_batches_total"])
	}
	hist, ok := snap["pipeline_epoch_barrier_seconds"].(map[string]any)
	if !ok || hist["count"].(int64) < 1 {
		t.Fatalf("epoch barrier histogram: %v", snap["pipeline_epoch_barrier_seconds"])
	}
	if _, ok := snap[`pipeline_queue_depth_high_water{worker="0"}`]; !ok {
		t.Fatalf("missing per-worker HWM gauge: %v", snap)
	}
}

// TestInstrumentedObserveAllocFree pins the instrumented per-packet
// path at zero allocations, inline and sharded: the counters are
// pre-registered atomics and op batches recycle, so attaching telemetry
// must not hand the GC any per-packet garbage.
func TestInstrumentedObserveAllocFree(t *testing.T) {
	for _, workers := range []int{0, 2} {
		det, err := New(WithCompactSketches(), WithWorkers(workers), WithTelemetry(telemetry.NewRegistry()))
		if err != nil {
			t.Fatal(err)
		}
		pkt := synPacket(netip.MustParseAddr("8.8.4.4"), netip.MustParseAddr("192.168.0.1"), 80)
		allocs := testing.AllocsPerRun(1000, func() {
			det.Observe(pkt)
		})
		if allocs != 0 {
			t.Errorf("workers=%d: instrumented Observe allocates %v times per packet, want 0", workers, allocs)
		}
		if _, err := det.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

type sinkFunc func(telemetry.Event)

func (f sinkFunc) Emit(ev telemetry.Event) { f(ev) }
