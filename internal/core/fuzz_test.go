package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/revsketch"
	"github.com/hifind/hifind/internal/sketch"
	"github.com/hifind/hifind/internal/sketch2d"
)

// FuzzObserve drives Recorder.Observe and Recorder.ObserveFlow, and
// their reference twins on a second recorder, with the same arbitrary
// event stream and requires byte-identical serialized state — the
// differential harness with the fuzzer choosing the inputs. Each
// 16-byte chunk of the corpus decodes to one event: packets with
// arbitrary flag/direction bytes (including the non-SYN noise both
// paths must ignore identically) and flow records with counts up to
// 255, enough to exercise the weighted-update collapse without making
// the reference replay loop the test's bottleneck (the differential
// unit tests cover larger counts).
func FuzzObserve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0, 8, 8, 8, 8, 129, 105, 1, 1, 0x9c, 0x40, 0, 80, 0x02, 1})
	f.Add(bytes.Repeat([]byte{0x03, 0xff, 10, 20, 30, 40, 129, 105, 2, 2, 0, 53, 0, 53, 0x12, 2}, 8))
	// Small geometries keep per-iteration construction cheap (the 64-bit
	// reversible sketch's word tables dominate recorder build time at
	// paper scale); differential identity is geometry-independent.
	cfg := RecorderConfig{
		Seed:            0xf0aa,
		RS48:            revsketch.Params{KeyBits: 48, Words: 6, Stages: 6, Buckets: 1 << 12},
		RS64:            revsketch.Params{KeyBits: 64, Words: 8, Stages: 6, Buckets: 1 << 8},
		Verifier:        sketch.Params{Stages: 6, Buckets: 1 << 8},
		Original:        sketch.Params{Stages: 6, Buckets: 1 << 8},
		TwoD:            sketch2d.Params{Stages: 5, XBuckets: 1 << 8, YBuckets: 64},
		ServiceCapacity: 1 << 12,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fused, err := NewRecorder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := NewRecorder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for len(data) >= 16 {
			ev := data[:16]
			data = data[16:]
			sip := netmodel.IPv4(binary.LittleEndian.Uint32(ev[2:]))
			dip := netmodel.IPv4(binary.LittleEndian.Uint32(ev[6:]))
			sport := binary.LittleEndian.Uint16(ev[10:])
			dport := binary.LittleEndian.Uint16(ev[12:])
			dir := netmodel.Inbound
			if ev[1]&1 != 0 {
				dir = netmodel.Outbound
			}
			if ev[0]&1 != 0 {
				syns := int(ev[14])
				synacks := int(ev[15])
				rec := netmodel.FlowRecord{
					SrcIP: sip, DstIP: dip, SrcPort: sport, DstPort: dport,
					Dir: dir, SYNs: syns, SYNACKs: synacks,
				}
				fused.ObserveFlow(rec)
				legacy.ObserveFlowReference(rec)
			} else {
				pkt := netmodel.Packet{
					SrcIP: sip, DstIP: dip, SrcPort: sport, DstPort: dport,
					Flags: netmodel.TCPFlags(ev[14]), Dir: dir,
				}
				fused.Observe(pkt)
				legacy.ObserveReference(pkt)
			}
		}
		fb, err := fused.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		lb, err := legacy.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fb, lb) {
			t.Fatal("direct and reference state diverged")
		}
		if fused.Packets() != legacy.Packets() || fused.MemoryAccesses() != legacy.MemoryAccesses() {
			t.Fatalf("counters diverged: packets %d/%d accesses %d/%d",
				fused.Packets(), legacy.Packets(), fused.MemoryAccesses(), legacy.MemoryAccesses())
		}
	})
}
