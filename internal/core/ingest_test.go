package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"github.com/hifind/hifind/internal/netmodel"
)

// ingestTestConfig enables every lane: invertible inference, the burst
// monitor and the reflection monitor.
func ingestTestConfig(o Orientation) RecorderConfig {
	cfg := TestRecorderConfig(0x1a9e)
	cfg.Orientation = o
	cfg.Inference = InferenceInvertible
	cfg.BurstSlots = 4
	cfg.BurstWindow = 500 * time.Millisecond
	cfg.Reflection = true
	return cfg
}

// shardedPath is a Planner plus the shard view and recorder its ops land
// in, for tests that compare sharded against sequential recording.
type shardedPath struct {
	pl   *Planner
	sink *collectSink
	view *ShardView
	rec  *Recorder
}

func newShardedPath(t *testing.T, cfg RecorderConfig) *shardedPath {
	t.Helper()
	ref, err := NewRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &shardedPath{sink: &collectSink{}, view: NewShardView(rec), rec: rec}
	if s.pl, err = NewPlanner(ref, s.sink); err != nil {
		t.Fatal(err)
	}
	return s
}

// drain applies every op and the tally emitted so far to the recorder.
func (s *shardedPath) drain() *Recorder {
	s.pl.FlushCache()
	tally := s.pl.TakeTally()
	s.view.Apply(s.sink.ops)
	s.view.ApplyInv(s.sink.inv)
	s.rec.ApplyTally(&tally)
	s.sink.ops, s.sink.inv = nil, nil
	return s.rec
}

// TestUnknownFlowDirectionIgnored: a flow record whose direction is
// neither edge crossing carries no signal in either orientation, on the
// sequential and the sharded path alike.
func TestUnknownFlowDirectionIgnored(t *testing.T) {
	for _, o := range []Orientation{Ingress, Egress} {
		cfg := ingestTestConfig(o)
		empty, err := NewRecorder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := empty.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		seq, err := NewRecorder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sh := newShardedPath(t, cfg)
		for _, dir := range []netmodel.Direction{0, 3, -1} {
			rec := netmodel.FlowRecord{
				SrcIP: 0x08080808, DstIP: 0x81690101, SrcPort: 40000, DstPort: 80,
				Dir: dir, SYNs: 5, SYNACKs: 3,
			}
			seq.ObserveFlow(rec)
			sh.pl.ObserveFlow(rec)
		}
		if len(sh.sink.ops)+len(sh.sink.inv) != 0 {
			t.Fatalf("%v planner: unknown directions emitted %d ops, %d inv ops", o, len(sh.sink.ops), len(sh.sink.inv))
		}
		if tally := sh.pl.TakeTally(); !tally.IsZero() {
			t.Fatalf("%v planner: unknown directions left tally %+v", o, tally)
		}
		if seq.Packets() != 0 || seq.MemoryAccesses() != 0 {
			t.Fatalf("%v recorder: unknown directions counted %d packets, %d accesses", o, seq.Packets(), seq.MemoryAccesses())
		}
		got, err := seq.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v recorder: unknown directions changed state", o)
		}
	}
}

// TestUnmarshalBadFramingLeavesStateUnchanged: a payload whose block
// framing is broken is rejected before any block decodes.
func TestUnmarshalBadFramingLeavesStateUnchanged(t *testing.T) {
	src, dst := diffRecorders(t, 0xf4a3)
	feed(src, diffStream(61, 500))
	feed(dst, diffStream(62, 500))
	blob, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Offset of the last block's length header.
	last := 8
	for {
		n := int(binary.LittleEndian.Uint32(blob[last:]))
		if last+4+n == len(blob) {
			break
		}
		last += 4 + n
	}
	lastLen := len(blob) - last - 4
	before, err := dst.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"truncated-block":     blob[:last],
		"truncated-mid-block": blob[:last+4+lastLen/2],
		"trailing-bytes":      append(append([]byte{}, blob...), 0),
	} {
		if err := dst.UnmarshalBinary(data); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		after, err := dst.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s: rejected payload changed recorder state", name)
		}
	}
}

// TestFlowChunkSplit feeds flow records whose counts exceed one int32
// weighted update through the sequential, cached and sharded paths: all
// three must build byte-identical state, and the OS and verifier totals
// must carry the full count.
func TestFlowChunkSplit(t *testing.T) {
	for _, count := range []int{flowChunk + 1, 1 << 32, 3<<30 + 5} {
		t.Run(fmt.Sprint(count), func(t *testing.T) {
			cfg := ingestTestConfig(Ingress)
			seq, err := NewRecorder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ccfg := cfg
			ccfg.FlowCache = 64
			cached, err := NewRecorder(ccfg)
			if err != nil {
				t.Fatal(err)
			}
			sh := newShardedPath(t, cfg)
			observe := func(rec netmodel.FlowRecord) []*Recorder {
				seq.ObserveFlow(rec)
				cached.ObserveFlow(rec)
				cached.FlushCache()
				sh.pl.ObserveFlow(rec)
				return []*Recorder{seq, cached, sh.drain()}
			}
			requireTotals := func(recs []*Recorder, os, ver int64) {
				t.Helper()
				for i, r := range recs {
					if got := r.OSDipDport.Total(); got != os {
						t.Fatalf("path %d: OS total %d, want %d", i, got, os)
					}
					for _, v := range []int64{r.VerSipDport.Total(), r.VerDipDport.Total(), r.VerSipDip.Total()} {
						if v != ver {
							t.Fatalf("path %d: verifier total %d, want %d", i, v, ver)
						}
					}
				}
			}
			c := int64(count)
			ts := shardTestEpoch.Add(time.Second)
			syn := netmodel.FlowRecord{Start: ts, SrcIP: 0x08080808, DstIP: 0x81690101,
				SrcPort: 40000, DstPort: 80, Dir: netmodel.Inbound, SYNs: count}
			requireTotals(observe(syn), c, c)
			synack := netmodel.FlowRecord{Start: ts, SrcIP: 0x81690101, DstIP: 0x08080808,
				SrcPort: 80, DstPort: 40000, Dir: netmodel.Outbound, SYNACKs: count}
			requireTotals(observe(synack), c, 0)
			// The reverse crossings feed only the reflection monitor.
			observe(netmodel.FlowRecord{Start: ts, SrcIP: 0x81690202, DstIP: 0x09090909,
				SrcPort: 40001, DstPort: 53, Dir: netmodel.Outbound, SYNs: count})
			recs := observe(netmodel.FlowRecord{Start: ts, SrcIP: 0x09090909, DstIP: 0x81690303,
				SrcPort: 53, DstPort: 40002, Dir: netmodel.Inbound, SYNACKs: count})
			requireTotals(recs, c, 0)
			if got := seq.Reflect.Total(); got != 0 {
				t.Fatalf("reflection total %d, want 0 (−count then +count)", got)
			}
			if seq.Packets() != 2*c {
				t.Fatalf("packets %d, want %d", seq.Packets(), 2*c)
			}
			requireIdentical(t, seq, cached, "cached")
			requireIdentical(t, seq, sh.rec, "sharded")
		})
	}
}
