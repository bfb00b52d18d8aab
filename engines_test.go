package hifind_test

// Differential suites over the golden scenarios. The facade-level one
// replays every scenario through sequential and sharded detectors and
// requires the complete per-interval alert output to agree exactly; the
// core-level one records every scenario through the direct applier and
// through the reference applier and requires byte-identical recorder
// state at every interval. Together with the byte-identity tests in
// internal/core this proves the fused recording path changes only
// speed, never detection behavior, on the same traces the golden
// regression suite pins.

import (
	"bytes"
	"fmt"
	"testing"

	hifind "github.com/hifind/hifind"
	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/pcap"
	"github.com/hifind/hifind/internal/trace"
)

func TestEngineDifferentialGoldenTraces(t *testing.T) {
	for name, sc := range goldenScenarios() {
		t.Run(name, func(t *testing.T) {
			cfg := sc.cfg
			g, err := trace.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			w := pcap.NewWriter(&buf)
			if err := g.Stream(w.WritePacket); err != nil {
				t.Fatal(err)
			}
			capture := buf.Bytes()
			edge := []string{fmt.Sprintf("%s/16", cfg.InternalPrefix)}

			want := replayGolden(t, capture, edge, newCompact(t, sc.options()...))
			if name != "benign-only" && want == "" {
				t.Fatal("sequential replay produced no output; the equivalence would be vacuous")
			}
			p := newCompact(t, sc.options(hifind.WithWorkers(3), hifind.WithBatchSize(64))...)
			defer p.Close()
			if got := replayGolden(t, capture, edge, p); got != want {
				t.Errorf("workers-3 diverged from sequential:\n%s", goldenDiff(want, got))
			}
		})
	}
}

// TestReferenceDifferentialGoldenTraces records every golden scenario
// through Observe and ObserveReference, and through ObserveFlow and
// ObserveFlowReference on the same traffic collapsed into flow records,
// and requires byte-identical recorder state, packet counts and access
// budgets at every interval.
func TestReferenceDifferentialGoldenTraces(t *testing.T) {
	for name, sc := range goldenScenarios() {
		t.Run(name, func(t *testing.T) {
			rcfg, err := hifind.RecorderConfigFor(sc.options(hifind.WithCompactSketches())...)
			if err != nil {
				t.Fatal(err)
			}
			g, err := trace.New(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			recs := make([]*core.Recorder, 4) // packet direct/reference, flow direct/reference
			for i := range recs {
				if recs[i], err = core.NewRecorder(rcfg); err != nil {
					t.Fatal(err)
				}
			}
			for iv := 0; iv < sc.cfg.Intervals; iv++ {
				pkts, err := g.GenerateInterval(iv)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range pkts {
					recs[0].Observe(p)
					recs[1].ObserveReference(p)
				}
				for _, f := range flowsOf(pkts) {
					recs[2].ObserveFlow(f)
					recs[3].ObserveFlowReference(f)
				}
				if recs[0].Packets() == 0 || recs[2].Packets() == 0 {
					t.Fatalf("interval %d recorded nothing; the equivalence would be vacuous", iv)
				}
				requireSameRecorder(t, fmt.Sprintf("interval %d packets", iv), recs[0], recs[1])
				requireSameRecorder(t, fmt.Sprintf("interval %d flows", iv), recs[2], recs[3])
				for _, r := range recs {
					r.Reset()
				}
			}
		})
	}
}

// flowsOf collapses one interval's packets into flow records, one per
// unidirectional 4-tuple, counting SYNs and SYN/ACKs — the weighted
// input the NetFlow path sees.
func flowsOf(pkts []netmodel.Packet) []netmodel.FlowRecord {
	type tuple struct {
		src, dst     netmodel.IPv4
		sport, dport uint16
		dir          netmodel.Direction
	}
	idx := map[tuple]int{}
	var out []netmodel.FlowRecord
	for _, p := range pkts {
		k := tuple{p.SrcIP, p.DstIP, p.SrcPort, p.DstPort, p.Dir}
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, netmodel.FlowRecord{
				Start: p.Timestamp, SrcIP: p.SrcIP, DstIP: p.DstIP,
				SrcPort: p.SrcPort, DstPort: p.DstPort, Dir: p.Dir,
			})
		}
		switch {
		case p.Flags.IsSYN():
			out[i].SYNs++
		case p.Flags.IsSYNACK():
			out[i].SYNACKs++
		}
	}
	return out
}

func requireSameRecorder(t *testing.T, label string, direct, ref *core.Recorder) {
	t.Helper()
	db, err := direct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(db, rb) {
		t.Fatalf("%s: direct and reference state diverged", label)
	}
	if direct.Packets() != ref.Packets() || direct.MemoryAccesses() != ref.MemoryAccesses() {
		t.Fatalf("%s: packets %d/%d, accesses %d/%d", label,
			direct.Packets(), ref.Packets(), direct.MemoryAccesses(), ref.MemoryAccesses())
	}
}

func replayGolden(t *testing.T, capture []byte, edge []string, d hifind.Replayable) string {
	t.Helper()
	results, err := hifind.ReplayPcap(bytes.NewReader(capture), edge, d)
	if err != nil {
		t.Fatal(err)
	}
	return formatGolden(results)
}
