package core

// The reference applier: the recorder's original per-structure update
// path, reachable only through ObserveReference and
// ObserveFlowReference. It shares the ingestion core's classification
// and accounting but writes every packet through each structure's own
// Update, so the differential suites and the hot-path benchmark have an
// independently written witness to hold the direct and routed appliers
// to.

import "github.com/hifind/hifind/internal/netmodel"

// ObserveReference records one packet through the reference applier:
// the same classification as Observe, but every structure hashes its
// own key and the flow cache is bypassed. It builds state byte-identical
// to Observe and exists only as the differential witness and the
// baseline of the hot-path benchmark.
func (r *Recorder) ObserveReference(pkt netmodel.Packet) {
	in := r.referenceIngest()
	in.observe(pkt)
	r.in.packets, r.in.accesses = in.packets, in.accesses
}

// ObserveFlowReference is ObserveReference for flow records: each record
// replays one SYN (or SYN/ACK) at a time instead of as a weighted update.
func (r *Recorder) ObserveFlowReference(rec netmodel.FlowRecord) {
	in := r.referenceIngest()
	in.observeFlow(rec)
	r.in.packets, r.in.accesses = in.packets, in.accesses
}

// referenceIngest returns a cache-less copy of the recorder's classifier
// that applies through the reference applier.
func (r *Recorder) referenceIngest() ingest {
	in := r.in
	in.apply, in.cache = reference{r}, nil
	return in
}

// reference is the reference applier. Only the connection lane
// differs from the direct one — the service and monitor lanes are the
// recorder's own.
type reference struct{ *Recorder }

// applyConn replays a weighted connection update one packet at a time,
// every structure mangling and hashing its key independently.
//
//hifind:hot
func (ref reference) applyConn(sip, dip netmodel.IPv4, dport uint16, v, syn int32) {
	unit, n := int32(1), v
	if v < 0 {
		unit, n = -1, -v
	}
	for i := int32(0); i < n; i++ {
		ref.updateOne(sip, dip, dport, unit, syn != 0)
	}
}

// updateOne applies one packet's ±1 to every structure under connection
// (sip, dip, dport), and one SYN to the OS sketch when countSYN.
func (ref reference) updateOne(sip, dip netmodel.IPv4, dport uint16, v int32, countSYN bool) {
	r := ref.Recorder
	kSipDport := netmodel.PackSIPDport(sip, dport)
	kDipDport := netmodel.PackDIPDport(dip, dport)
	kSipDip := netmodel.PackSIPDIP(sip, dip)

	r.RSSipDport.Update(kSipDport, v)
	r.RSDipDport.Update(kDipDport, v)
	r.RSSipDip.Update(kSipDip, v)
	r.VerSipDport.Update(kSipDport, v)
	r.VerDipDport.Update(kDipDport, v)
	r.VerSipDip.Update(kSipDip, v)
	if countSYN {
		r.OSDipDport.Update(kDipDport, 1)
	}
	r.TwoDSipDportXDip.Update(kSipDport, uint64(dip), v)
	r.TwoDSipDipXDport.Update(kSipDip, uint64(dport), v)
	if r.InvSipDport != nil {
		r.InvSipDport.Update(kSipDport, v)
		r.InvDipDport.Update(kDipDport, v)
		r.InvSipDip.Update(kSipDip, v)
	}
}
