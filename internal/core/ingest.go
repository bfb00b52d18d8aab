package core

// One ingestion core for every recording path. The paper's recording
// step (§3.3, §5.5.2) is one fixed per-packet update, and it is written
// exactly once, here: ingest classifies a packet or a flow record into
// lane updates — the weighted connection update, the active-service
// insert, the burst-monitor update and the reflection-monitor update —
// with the flow cache, the int32 chunking and the packet and
// memory-access accounting in front, and hands each lane update to an
// applier. The appliers differ only in how a lane update reaches the
// counters:
//
//   - the Recorder writes cells directly (plan fill plus UpdateAt), so
//     sequential recording materializes no ops;
//   - the Planner emits routed ops for the sharded workers to apply;
//   - the reference applier (ObserveReference, ObserveFlowReference)
//     runs each structure's own Update one packet at a time — the
//     independently written witness the differential suites compare the
//     other two against.

import (
	"fmt"
	"time"

	"github.com/hifind/hifind/internal/burst"
	"github.com/hifind/hifind/internal/flowcache"
	"github.com/hifind/hifind/internal/netmodel"
)

// flowChunk bounds one weighted update's collapsed packet count well
// inside int32 range.
const flowChunk = 1 << 30

// bloomAccesses is the per-packet access charge of one service insert:
// k≈7 bit-writes for a 1% Bloom filter.
const bloomAccesses = 7

// applier writes the lane updates the classifier produces. The lint
// call graph does not follow interface dispatch, so implementations
// carry //hifind:hot.
type applier interface {
	// applyConn adds v to every #SYN−#SYN/ACK structure under connection
	// (sip, dip, dport) and syn to the OS sketch.
	applyConn(sip, dip netmodel.IPv4, dport uint16, v, syn int32)
	// applyService inserts a {DIP,Dport} key into the service filter.
	applyService(key uint64)
	// applyMonitor adds v under key to an invertible monitor segment: a
	// burst slot (segBurst0+slot) or the reflection monitor (segReflect).
	applyMonitor(seg uint32, key uint64, v int32)
}

// lane is one weighted-update target: the connection lane under
// (sip, dip, dport), or monitor segment seg under key.
type lane struct {
	conn     bool
	syn      bool // connection lane: the SYN side, which also feeds the OS sketch
	sip, dip netmodel.IPv4
	dport    uint16
	seg      uint32
	key      uint64
}

// ingest is the classifier and its front end, embedded by value in the
// Recorder and the Planner.
type ingest struct {
	apply applier
	// cache is the optional exact flow-aggregation table in front of the
	// connection lane (nil when the configuration's FlowCache is zero).
	cache *flowcache.Cache

	synDir, ackDir netmodel.Direction
	burst          burst.Config // Slots == 0: burst monitor off
	reflect        bool

	accConn    int64 // counter writes per connection update, OS excluded
	accSyn     int64 // extra OS writes on the SYN side
	accBurst   int64 // writes per burst-monitor update
	accReflect int64 // writes per reflection-monitor update

	packets  int64
	accesses int64
}

// init configures the classifier for recorders built like r and
// installs apply behind it, creating the flow cache when configured.
// in must already sit at its final address: the cache's flush sink is
// bound to it.
func (in *ingest) init(r *Recorder, apply applier) error {
	cfg := r.cfg
	in.apply = apply
	in.synDir, in.ackDir = netmodel.Inbound, netmodel.Outbound
	if cfg.Orientation == Egress {
		in.synDir, in.ackDir = in.ackDir, in.synDir
	}
	// Counter writes per packet: 6 per RS ×3, 6 per verifier ×3, 5 per
	// 2D ×2, plus 6 for the OS on SYNs — the fixed per-packet access
	// budget of paper §5.5.2 (no per-flow state anywhere). The invertible
	// engine adds Stages×Fields writes per invertible sketch; each
	// stage's burst is one contiguous bucket, so the cache-line cost is
	// closer to Stages than to Stages×Fields, but the budget counts
	// writes honestly.
	in.accConn = int64(3*cfg.RS48.Stages + 3*cfg.Verifier.Stages + 2*cfg.TwoD.Stages)
	if r.InvSipDport != nil {
		in.accConn += int64(2*cfg.Inv48.Stages*cfg.Inv48.Fields() + cfg.Inv64.Stages*cfg.Inv64.Fields())
	}
	in.accSyn = int64(cfg.Original.Stages)
	if r.Burst != nil {
		in.burst = r.Burst.Config()
		in.accBurst = int64(r.Burst.AccessesPerUpdate())
	}
	if r.Reflect != nil {
		in.reflect = true
		in.accReflect = int64(cfg.Reflect.Stages * cfg.Reflect.Fields())
	}
	switch {
	case cfg.FlowCache > 0:
		// The flush sink is a bound method value: one allocation here,
		// none per flush.
		var err error
		if in.cache, err = flowcache.New(cfg.FlowCache, in.flush); err != nil {
			return fmt.Errorf("core: flow cache: %w", err)
		}
	case cfg.FlowCache < 0:
		return fmt.Errorf("core: flow cache entries %d < 0", cfg.FlowCache)
	}
	return nil
}

// observe classifies one packet. Only two packet classes matter to the
// #SYN−#SYN/ACK signal (paper §3.3): connection-opening SYNs crossing the
// edge in the protected direction, and the answering SYN/ACKs crossing
// back; the reverse crossings feed the reflection monitor. Every packet
// counts, ignored classes included.
func (in *ingest) observe(pkt netmodel.Packet) {
	switch {
	case pkt.Flags.IsSYN():
		in.syn(pkt.Dir, pkt.SrcIP, pkt.DstIP, pkt.DstPort, pkt.Timestamp, 1)
	case pkt.Flags.IsSYNACK():
		// Connection client = pkt.DstIP, server = pkt.SrcIP:pkt.SrcPort.
		if in.synack(pkt.Dir, pkt.DstIP, pkt.SrcIP, pkt.SrcPort, pkt.Timestamp, 1) {
			in.accesses += bloomAccesses
		}
	}
	in.packets++
}

// observeFlow classifies one NetFlow-style record: its SYNs and SYN/ACKs
// are count collapsed packets of their class, stamped with the record's
// start — the finest timing the export format carries. Only the packets
// that feed the connection lanes count.
func (in *ingest) observeFlow(rec netmodel.FlowRecord) {
	if rec.SYNs > 0 && in.syn(rec.Dir, rec.SrcIP, rec.DstIP, rec.DstPort, rec.Start, int64(rec.SYNs)) {
		in.packets += int64(rec.SYNs)
	}
	if rec.SYNACKs > 0 && in.synack(rec.Dir, rec.DstIP, rec.SrcIP, rec.SrcPort, rec.Start, int64(rec.SYNACKs)) {
		in.packets += int64(rec.SYNACKs)
	}
}

// syn classifies count SYNs from client to server:port crossing the edge
// in direction dir at ts, and reports whether they fed the connection
// lanes. Any direction other than the two edge crossings is ignored.
func (in *ingest) syn(dir netmodel.Direction, client, server netmodel.IPv4, port uint16, ts time.Time, count int64) bool {
	switch dir {
	case in.synDir:
		in.conn(client, server, port, count, 0)
		if in.burst.Slots > 0 {
			in.add(lane{seg: segBurst0 + uint32(in.burst.Slot(ts)), key: netmodel.PackDIPDport(server, port)}, count, +1)
		}
		return true
	case in.ackDir:
		// Outbound connection attempt: subtract under {requester, service
		// port} so the answering SYN/ACK nets a benign round trip to zero.
		if in.reflect {
			in.add(lane{seg: segReflect, key: netmodel.PackDIPDport(client, port)}, count, -1)
		}
	}
	return false
}

// synack classifies count SYN/ACKs from server:port back to client
// crossing the edge in direction dir at ts, and reports whether they fed
// the connection lanes.
func (in *ingest) synack(dir netmodel.Direction, client, server netmodel.IPv4, port uint16, ts time.Time, count int64) bool {
	switch dir {
	case in.ackDir:
		in.conn(client, server, port, 0, count)
		svc := netmodel.PackDIPDport(server, port)
		in.apply.applyService(svc)
		if in.burst.Slots > 0 {
			in.add(lane{seg: segBurst0 + uint32(in.burst.Slot(ts)), key: svc}, count, -1)
		}
		return true
	case in.synDir:
		// Handshake response entering the edge: add under {destination,
		// responding service port}. Unsolicited ones — reflected floods —
		// have no outbound SYN to cancel against and accumulate.
		if in.reflect {
			in.add(lane{seg: segReflect, key: netmodel.PackDIPDport(client, port)}, count, +1)
		}
	}
	return false
}

// conn feeds syns SYNs and acks SYN/ACKs of connection (sip, dip, dport)
// to the connection lane, through the flow cache when one is installed.
// The burst and reflection lanes bypass the cache: the cache drops the
// timestamps the burst monitor needs.
func (in *ingest) conn(sip, dip netmodel.IPv4, dport uint16, syns, acks int64) {
	if in.cache != nil {
		in.cache.Add(sip, dip, dport, syns, acks)
		return
	}
	in.flush(sip, dip, dport, syns, acks)
}

// flush applies one aggregated connection as two exact weighted updates,
// (+syns with the OS sketch fed) then (−acks without it): the flow
// cache's flush sink and the cache-less path alike, so cached and
// cache-less recording build the same bytes and charge the same access
// budget.
//
//hifind:hot
func (in *ingest) flush(sip, dip netmodel.IPv4, dport uint16, syns, acks int64) {
	in.add(lane{conn: true, syn: true, sip: sip, dip: dip, dport: dport}, syns, +1)
	in.add(lane{conn: true, sip: sip, dip: dip, dport: dport}, acks, -1)
}

// add applies count collapsed packets of the given sign to one lane as
// weighted updates of at most flowChunk each, then charges the lane's
// access budget for all count packets. Sketch linearity makes
// Update(k, v·c) identical to c repeated Update(k, v), including under
// int32 wraparound, so chunks are exact; chunking keeps the int32 weight
// faithful for pathological counts (a count ≡ 0 mod 2^32 must not skip
// the OS sketch). One iteration for any realistic count.
func (in *ingest) add(l lane, count int64, sign int32) {
	for left := count; left > 0; {
		c := int32(min(left, flowChunk))
		switch {
		case !l.conn:
			in.apply.applyMonitor(l.seg, l.key, sign*c)
		case l.syn:
			in.apply.applyConn(l.sip, l.dip, l.dport, sign*c, c)
		default:
			in.apply.applyConn(l.sip, l.dip, l.dport, sign*c, 0)
		}
		left -= int64(c)
	}
	var acc int64
	switch {
	case l.conn && l.syn:
		acc = in.accConn + in.accSyn
	case l.conn:
		acc = in.accConn
	case l.seg == segReflect:
		acc = in.accReflect
	default:
		acc = in.accBurst
	}
	in.accesses += acc * count
}
