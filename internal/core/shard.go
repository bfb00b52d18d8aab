package core

// Key-sharded ingestion: the machinery that lets N pipeline workers
// share ONE recorder instead of each owning a replica.
//
// The replicated design (one recorder per worker, COMBINE fan-in at
// rotation) scales memory and merge cost linearly with N and leaves
// per-packet hashing duplicated across whichever worker a packet lands
// on. Sharding inverts the split: every sketch's bucket columns are
// partitioned across workers, producers do the hash work exactly once
// (the fused plan path) and emit pre-routed counter deltas ("ops"),
// and each worker applies only ops whose cells it owns. Rotation
// stitches per-worker scalar tallies back into the retiring recorder
// in O(structures) — no sketch-sized COMBINE at all.
//
// Byte identity with a sequential recorder is the design's invariant,
// and it falls out of three facts:
//
//  1. Hashing is unchanged. The planner is the same ingestion core as
//     the sequential recorder (ingest.go) and fills the same plans its
//     direct applier fills, against the same immutable hash tables,
//     so an op's (structure, stage, bucket) is exactly the cell
//     Update would have written.
//  2. Counter cells are int32 adds (and service bits a monotone OR),
//     which commute; ownership partitions cells disjointly, so no two
//     workers ever write the same cell and no synchronization is
//     needed beyond the queue handoff.
//  3. Everything that is not a cell — packet counts, per-structure
//     totals, Bloom insertion counts, access budgets, cache stats — is
//     carried in a Tally that rides with the ops and folds in at
//     rotation, in whatever order (scalar adds commute too).
//
// Layout of one op's 32-bit location:
//
//	Loc = seg<<27 | stage<<colBits | bucket     (counter structures)
//	Loc = seg<<27 | bit                          (service filter)
//	Loc = seg<<27 | stage<<bucketBits | bucket  (invertible sketches)
//
// Five segment bits name the structure (recorder marshal order), and
// 27 bits of in-segment offset cover every supported geometry — the
// paper configuration's largest structure, the 2^18-cell 2D sketch ×5
// stages, uses 21. NewShardGeometry rejects geometries that overflow.
//
// Ownership routes by bucket column only (the low colBits of the
// offset), never by stage: worker w owns an identical contiguous
// column range in every stage of a structure, computed by the exact
// multiplicative split owner = (column·N)>>colBits — contiguous,
// disjoint, exhaustive for any worker count, one multiply and shift on
// the hot path. The service filter routes by 64-bit WORD (scale 6):
// two workers OR-ing bits into the same word would race, so the word
// is the ownership unit. Invertible sketches route whole buckets — a
// bucket update is a contiguous Fields-sized burst carrying folded key
// material, not an independent cell — so an InvOp names (stage,
// bucket) and carries key, fingerprint and weight for the owner to
// replay.

import (
	"fmt"

	"github.com/hifind/hifind/internal/burst"
	"github.com/hifind/hifind/internal/flowcache"
	"github.com/hifind/hifind/internal/invsketch"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/sketch"
)

// Segment IDs, in recorder marshal order. Five bits reserved. The
// burst monitor owns one segment per slot (segBurst0 through
// segBurst0+burst.MaxSlots−1) so each slot's sketch routes and tallies
// independently; the reflection monitor takes the one after.
const (
	segRSSipDport = iota
	segRSDipDport
	segRSSipDip
	segVerSipDport
	segVerDipDport
	segVerSipDip
	segOSDipDport
	segTwoDSipDportXDip
	segTwoDSipDipXDport
	segServices
	segInvSipDport
	segInvDipDport
	segInvSipDip
	segBurst0
)

const (
	segReflect = segBurst0 + burst.MaxSlots
	numSegs    = segReflect + 1
)

const (
	segShift = 27
	locMask  = 1<<segShift - 1
)

// Op is one routed counter write: add Delta to the cell Loc names. For
// the service-filter segment Delta is ignored and the op sets bit
// Loc&locMask. Ops are 8 bytes and batch densely.
type Op struct {
	Loc   uint32
	Delta int32
}

// InvOp is one routed invertible-sketch bucket update: replay a
// weighted update of V for Key (fingerprint Fp) into the stage/bucket
// Loc names.
type InvOp struct {
	Key uint64
	Loc uint32
	V   int32
	Fp  int32
}

// Tally carries everything about a batch of ops that is not a counter
// cell: the scalar state a sequential recorder mutates inline, shipped
// alongside the ops and folded into the epoch recorder at rotation.
// Tallies are plain sums, so folding commutes and associativity is
// free. The zero Tally is the identity.
type Tally struct {
	// Packets is the recorder packets counter delta (every observed
	// packet, including ignored classes, exactly once).
	Packets int64
	// MemoryAccesses is the counter-write budget delta (§5.5.2
	// accounting, diagnostic only).
	MemoryAccesses int64
	// Totals holds per-structure scalar-total deltas indexed by
	// segment ID; Totals[segServices] counts Bloom insertions.
	Totals [numSegs]int64
	// Cache is the producer-side flow cache's traffic-stats delta.
	Cache flowcache.Stats
}

// Add folds o into t.
func (t *Tally) Add(o *Tally) {
	t.Packets += o.Packets
	t.MemoryAccesses += o.MemoryAccesses
	for i := range t.Totals {
		t.Totals[i] += o.Totals[i]
	}
	t.Cache.Hits += o.Cache.Hits
	t.Cache.Misses += o.Cache.Misses
	t.Cache.Evictions += o.Cache.Evictions
	t.Cache.Flushes += o.Cache.Flushes
}

// IsZero reports whether the tally is the identity.
func (t *Tally) IsZero() bool { return *t == Tally{} }

// segGeom is one segment's routing arithmetic.
type segGeom struct {
	routeMask uint32 // low Loc bits forming the routable offset
	scale     uint32 // offset>>scale is the ownership unit (6 = Bloom words)
	routeBits uint32 // log2 of ownership units in the segment
}

// ShardGeometry is the routing table derived from a recorder
// configuration: enough to map any op location to its owning worker.
// All recorders built from the same configuration share one geometry.
type ShardGeometry struct {
	segs [numSegs]segGeom
}

// NewShardGeometry derives the routing geometry from a built recorder,
// validating that every structure fits the 27-bit offset encoding.
func NewShardGeometry(r *Recorder) (ShardGeometry, error) {
	var g ShardGeometry
	counter := func(seg, stages, cols int) error {
		cb := sketch.Log2(cols)
		if stages<<cb > 1<<segShift {
			return fmt.Errorf("core: shard segment %d: %d stages × %d columns overflows the %d-bit offset", seg, stages, cols, segShift)
		}
		g.segs[seg] = segGeom{routeMask: uint32(cols - 1), scale: 0, routeBits: uint32(cb)}
		return nil
	}
	cfg := r.Config()
	td := cfg.TwoD.XBuckets * cfg.TwoD.YBuckets
	checks := []struct{ seg, stages, cols int }{
		{segRSSipDport, cfg.RS48.Stages, cfg.RS48.Buckets},
		{segRSDipDport, cfg.RS48.Stages, cfg.RS48.Buckets},
		{segRSSipDip, cfg.RS64.Stages, cfg.RS64.Buckets},
		{segVerSipDport, cfg.Verifier.Stages, cfg.Verifier.Buckets},
		{segVerDipDport, cfg.Verifier.Stages, cfg.Verifier.Buckets},
		{segVerSipDip, cfg.Verifier.Stages, cfg.Verifier.Buckets},
		{segOSDipDport, cfg.Original.Stages, cfg.Original.Buckets},
		{segTwoDSipDportXDip, cfg.TwoD.Stages, td},
		{segTwoDSipDipXDport, cfg.TwoD.Stages, td},
	}
	for _, c := range checks {
		if err := counter(c.seg, c.stages, c.cols); err != nil {
			return ShardGeometry{}, err
		}
	}
	m := len(r.Services.Words()) * 64
	if m > 1<<segShift {
		return ShardGeometry{}, fmt.Errorf("core: shard geometry: %d service-filter bits overflow the %d-bit offset", m, segShift)
	}
	g.segs[segServices] = segGeom{routeMask: uint32(m - 1), scale: 6, routeBits: uint32(sketch.Log2(m) - 6)}
	if r.InvSipDport != nil {
		invChecks := []struct{ seg, stages, cols int }{
			{segInvSipDport, cfg.Inv48.Stages, cfg.Inv48.Buckets},
			{segInvDipDport, cfg.Inv48.Stages, cfg.Inv48.Buckets},
			{segInvSipDip, cfg.Inv64.Stages, cfg.Inv64.Buckets},
		}
		for _, c := range invChecks {
			if err := counter(c.seg, c.stages, c.cols); err != nil {
				return ShardGeometry{}, err
			}
		}
	}
	if r.Burst != nil {
		bc := r.Burst.Config()
		for i := 0; i < bc.Slots; i++ {
			if err := counter(segBurst0+i, bc.Params.Stages, bc.Params.Buckets); err != nil {
				return ShardGeometry{}, err
			}
		}
	}
	if r.Reflect != nil {
		if err := counter(segReflect, cfg.Reflect.Stages, cfg.Reflect.Buckets); err != nil {
			return ShardGeometry{}, err
		}
	}
	return g, nil
}

// Owner maps an op location (Op.Loc or InvOp.Loc) to its owning worker
// in an n-worker pool: the exact multiplicative range split
// (unit·n)>>unitBits, always in [0,n). Routing ignores the stage bits
// by construction, so a worker owns the same column span in every
// stage of a structure.
//
//hifind:hot
func (g *ShardGeometry) Owner(loc uint32, n uint64) int {
	sg := &g.segs[loc>>segShift]
	return int((uint64((loc&sg.routeMask)>>sg.scale) * n) >> sg.routeBits)
}

// ShiftLocUnit returns loc moved to the adjacent ownership unit
// (delta ±1) within its segment, or ok=false at the segment boundary.
// Test support for asserting the ownership split's monotonicity —
// adjacent units must never route to owners out of order.
func (g *ShardGeometry) ShiftLocUnit(loc uint32, delta int) (uint32, bool) {
	sg := &g.segs[loc>>segShift]
	unit := int((loc&sg.routeMask)>>sg.scale) + delta
	if unit < 0 || unit >= 1<<sg.routeBits {
		return 0, false
	}
	sub := loc & sg.routeMask & (1<<sg.scale - 1)
	return loc&^sg.routeMask | uint32(unit)<<sg.scale | sub, true
}

// ShardView is a recorder's op-application surface: direct references
// to every structure's live cells, so a worker can apply routed ops
// without touching recorder methods. Views of one recorder may be used
// from many goroutines concurrently PROVIDED the ops applied by
// different goroutines route to disjoint owners (the pipeline's
// invariant); the view itself adds no synchronization. A view is
// invalidated by UnmarshalBinary on its recorder (rebuild it), but
// survives Reset.
type ShardView struct {
	rows    [numSegs][][]int32
	colBits [numSegs]uint32
	colMask [numSegs]uint32
	words   []uint64
	// inv holds every bucket-routed invertible sketch indexed directly
	// by segment ID: the three inference sketches, the burst monitor's
	// per-slot sketches and the reflection monitor.
	inv [numSegs]*invsketch.Sketch
}

// NewShardView builds the application surface for r.
func NewShardView(r *Recorder) *ShardView {
	v := &ShardView{words: r.Services.Words()}
	fill := func(seg, stages, cols int, cells func(int) []int32) {
		rows := make([][]int32, stages)
		for j := range rows {
			rows[j] = cells(j)
		}
		v.rows[seg] = rows
		v.colBits[seg] = uint32(sketch.Log2(cols))
		v.colMask[seg] = uint32(cols - 1)
	}
	cfg := r.Config()
	td := cfg.TwoD.XBuckets * cfg.TwoD.YBuckets
	fill(segRSSipDport, cfg.RS48.Stages, cfg.RS48.Buckets, r.RSSipDport.StageCells)
	fill(segRSDipDport, cfg.RS48.Stages, cfg.RS48.Buckets, r.RSDipDport.StageCells)
	fill(segRSSipDip, cfg.RS64.Stages, cfg.RS64.Buckets, r.RSSipDip.StageCells)
	fill(segVerSipDport, cfg.Verifier.Stages, cfg.Verifier.Buckets, r.VerSipDport.StageCells)
	fill(segVerDipDport, cfg.Verifier.Stages, cfg.Verifier.Buckets, r.VerDipDport.StageCells)
	fill(segVerSipDip, cfg.Verifier.Stages, cfg.Verifier.Buckets, r.VerSipDip.StageCells)
	fill(segOSDipDport, cfg.Original.Stages, cfg.Original.Buckets, r.OSDipDport.StageCells)
	fill(segTwoDSipDportXDip, cfg.TwoD.Stages, td, r.TwoDSipDportXDip.StageCells)
	fill(segTwoDSipDipXDport, cfg.TwoD.Stages, td, r.TwoDSipDipXDport.StageCells)
	invFill := func(seg int, s *invsketch.Sketch, buckets int) {
		v.inv[seg] = s
		v.colBits[seg] = uint32(sketch.Log2(buckets))
		v.colMask[seg] = uint32(buckets - 1)
	}
	if r.InvSipDport != nil {
		invFill(segInvSipDport, r.InvSipDport, cfg.Inv48.Buckets)
		invFill(segInvDipDport, r.InvDipDport, cfg.Inv48.Buckets)
		invFill(segInvSipDip, r.InvSipDip, cfg.Inv64.Buckets)
	}
	if r.Burst != nil {
		bc := r.Burst.Config()
		for i := 0; i < bc.Slots; i++ {
			invFill(segBurst0+i, r.Burst.SlotSketch(i), bc.Params.Buckets)
		}
	}
	if r.Reflect != nil {
		invFill(segReflect, r.Reflect, cfg.Reflect.Buckets)
	}
	return v
}

// Apply folds a batch of routed counter ops into the view's recorder.
// Cells only — scalar state arrives separately via Recorder.ApplyTally.
//
//hifind:hot
func (v *ShardView) Apply(ops []Op) {
	for _, op := range ops {
		seg := op.Loc >> segShift
		so := op.Loc & locMask
		if seg == segServices {
			v.words[so>>6] |= 1 << (so & 63)
			continue
		}
		v.rows[seg][so>>v.colBits[seg]][so&v.colMask[seg]] += op.Delta
	}
}

// ApplyInv folds a batch of routed invertible-sketch bucket updates
// into the view's recorder.
//
//hifind:hot
func (v *ShardView) ApplyInv(ops []InvOp) {
	for _, op := range ops {
		seg := op.Loc >> segShift
		so := op.Loc & locMask
		v.inv[seg].ApplyAt(int(so>>v.colBits[seg]), so&v.colMask[seg], op.Key, op.Fp, op.V)
	}
}

// ApplyTally folds a shipped scalar tally into the recorder: the
// rotation stitch. After every op batch and every tally of an epoch
// have been applied, the recorder is byte-identical (MarshalBinary) to
// one that observed the same traffic sequentially.
func (r *Recorder) ApplyTally(t *Tally) {
	r.in.packets += t.Packets
	r.in.accesses += t.MemoryAccesses
	r.RSSipDport.AddTotal(t.Totals[segRSSipDport])
	r.RSDipDport.AddTotal(t.Totals[segRSDipDport])
	r.RSSipDip.AddTotal(t.Totals[segRSSipDip])
	r.VerSipDport.AddTotal(t.Totals[segVerSipDport])
	r.VerDipDport.AddTotal(t.Totals[segVerDipDport])
	r.VerSipDip.AddTotal(t.Totals[segVerSipDip])
	r.OSDipDport.AddTotal(t.Totals[segOSDipDport])
	r.TwoDSipDportXDip.AddTotal(t.Totals[segTwoDSipDportXDip])
	r.TwoDSipDipXDport.AddTotal(t.Totals[segTwoDSipDipXDport])
	r.Services.AddInsertions(int(t.Totals[segServices]))
	if r.InvSipDport != nil {
		r.InvSipDport.AddTotal(t.Totals[segInvSipDport])
		r.InvDipDport.AddTotal(t.Totals[segInvDipDport])
		r.InvSipDip.AddTotal(t.Totals[segInvSipDip])
	}
	if r.Burst != nil {
		for i := 0; i < r.Burst.Config().Slots; i++ {
			r.Burst.SlotSketch(i).AddTotal(t.Totals[segBurst0+i])
		}
	}
	if r.Reflect != nil {
		r.Reflect.AddTotal(t.Totals[segReflect])
	}
	r.AddCacheStats(t.Cache)
}

// AddCacheStats folds externally accumulated flow-cache traffic stats
// into the recorder's cache telemetry, so producer-side caches (the
// sharded pipeline aggregates in the dispatcher, not the recorder)
// still surface through CacheStats and the interval diagnostics. A
// no-op without a cache.
func (r *Recorder) AddCacheStats(s flowcache.Stats) {
	if r.in.cache == nil {
		return
	}
	r.in.cache.AddStats(s)
}

// OpSink receives the op stream a Planner emits. EmitOps must fully
// consume (route/copy) both slices before returning: they alias the
// planner's scratch and are overwritten by the next update. Either
// slice may be empty; inv is nil outside invertible-inference mode.
type OpSink interface {
	EmitOps(ops []Op, inv []InvOp)
}

// Planner is the producer half of sharded ingestion: the ingestion core
// with routed ops as its applier. It does everything a sequential
// recorder does EXCEPT write counters — classification, key packing,
// one-time polynomial powers, plan fills against the reference
// recorder's immutable hash tables, flow-cache aggregation and the
// scalar accounting — and emits the counter writes as routed ops. One
// Planner per producer goroutine; many planners may share one reference
// recorder because plan filling only reads immutable hash state.
//
// The optional flow cache lives HERE, not in the epoch recorder:
// aggregation happens before routing, so a cached flow's weighted
// flush emits ops through the same owners per-packet updates would
// have hit (identical cells by linearity), and per-producer caches
// need no synchronization. Callers must FlushCache before an epoch
// rotation they want byte-exact (the facade's Flush does).
type Planner struct {
	in    ingest
	ref   *Recorder
	sink  OpSink
	geom  ShardGeometry
	plans updatePlans
	last  flowcache.Stats
	// tally accumulates the per-structure totals; packets and memory
	// accesses are counted by the ingestion core.
	tally Tally

	ops      []Op
	invs     []InvOp
	bloomBuf [16]uint32
}

// NewPlanner builds a planner that hashes against ref and emits routed
// ops to sink. ref must outlive the planner; its hash tables are the
// shared immutable state every producer and worker agrees on.
func NewPlanner(ref *Recorder, sink OpSink) (*Planner, error) {
	if sink == nil {
		return nil, fmt.Errorf("core: planner needs an op sink")
	}
	geom, err := NewShardGeometry(ref)
	if err != nil {
		return nil, err
	}
	cfg := ref.Config()
	p := &Planner{
		ref:   ref,
		sink:  sink,
		geom:  geom,
		plans: ref.newPlans(),
	}
	if err := p.in.init(ref, p); err != nil {
		return nil, fmt.Errorf("core: planner: %w", err)
	}
	invLen := 0
	if ref.InvSipDport != nil {
		invLen += 2*cfg.Inv48.Stages + cfg.Inv64.Stages
	}
	if ref.Burst != nil {
		invLen += cfg.Burst.Stages
	}
	if ref.Reflect != nil {
		invLen += cfg.Reflect.Stages
	}
	if invLen > 0 {
		p.invs = make([]InvOp, invLen)
	}
	maxOps := 2*cfg.RS48.Stages + cfg.RS64.Stages + 3*cfg.Verifier.Stages +
		cfg.Original.Stages + 2*cfg.TwoD.Stages
	if maxOps < len(p.bloomBuf) {
		maxOps = len(p.bloomBuf)
	}
	p.ops = make([]Op, maxOps)
	return p, nil
}

// Geometry returns the planner's routing table (shared shape for every
// planner over the same configuration).
func (p *Planner) Geometry() ShardGeometry { return p.geom }

// Observe plans one packet: Recorder.Observe's classification,
// accounting and cache behavior, emitting ops instead of writing
// counters.
func (p *Planner) Observe(pkt netmodel.Packet) { p.in.observe(pkt) }

// ObserveFlow plans one flow record as Recorder.ObserveFlow would
// record it.
func (p *Planner) ObserveFlow(rec netmodel.FlowRecord) { p.in.observeFlow(rec) }

// FlushCache materializes every pending flow-cache aggregate as ops.
// A no-op without a cache. Call before an epoch rotation that must be
// byte-exact against sequential ingestion.
func (p *Planner) FlushCache() {
	if p.in.cache != nil {
		p.in.cache.FlushAll()
	}
}

// TakeTally returns the scalar accounting accumulated since the last
// take and resets it. The producer attaches the tally to the batch it
// ships, keeping the conservation invariant: every observed packet's
// accounting rides exactly one batch.
//
//hifind:hot
func (p *Planner) TakeTally() Tally {
	if p.in.cache != nil {
		s := p.in.cache.Stats()
		p.tally.Cache = flowcache.Stats{
			Hits:      s.Hits - p.last.Hits,
			Misses:    s.Misses - p.last.Misses,
			Evictions: s.Evictions - p.last.Evictions,
			Flushes:   s.Flushes - p.last.Flushes,
		}
		p.last = s
	}
	t := p.tally
	t.Packets, t.MemoryAccesses = p.in.packets, p.in.accesses
	p.tally = Tally{}
	p.in.packets, p.in.accesses = 0, 0
	return t
}

// applyConn is the routed connection lane: Recorder.applyConn's plan
// fill, with the counter writes emitted as ops instead of applied. Plans
// are filled against the reference recorder's hash tables, which never
// change after construction, so concurrent planners are safe.
//
//hifind:hot
func (p *Planner) applyConn(sip, dip netmodel.IPv4, dport uint16, v, syn int32) {
	pl := &p.plans
	pl.fillConn(p.ref, sip, dip, dport, syn != 0)
	k := 0
	k = p.emitIdx(k, segRSSipDport, pl.rsSipDport.Indices(), v)
	k = p.emitIdx(k, segRSDipDport, pl.rsDipDport.Indices(), v)
	k = p.emitIdx(k, segRSSipDip, pl.rsSipDip.Indices(), v)
	k = p.emitIdx(k, segVerSipDport, pl.verSipDport.Indices(), v)
	k = p.emitIdx(k, segVerDipDport, pl.verDipDport.Indices(), v)
	k = p.emitIdx(k, segVerSipDip, pl.verSipDip.Indices(), v)
	if syn != 0 {
		k = p.emitIdx(k, segOSDipDport, pl.osDipDport.Indices(), syn)
		p.tally.Totals[segOSDipDport] += int64(syn)
	}
	k = p.emitOff(k, segTwoDSipDportXDip, pl.twoDSipDportXDip.Offsets(), v)
	k = p.emitOff(k, segTwoDSipDipXDport, pl.twoDSipDipXDport.Offsets(), v)

	dv := int64(v)
	p.tally.Totals[segRSSipDport] += dv
	p.tally.Totals[segRSDipDport] += dv
	p.tally.Totals[segRSSipDip] += dv
	p.tally.Totals[segVerSipDport] += dv
	p.tally.Totals[segVerDipDport] += dv
	p.tally.Totals[segVerSipDip] += dv
	p.tally.Totals[segTwoDSipDportXDip] += dv
	p.tally.Totals[segTwoDSipDipXDport] += dv

	var inv []InvOp
	if pl.invSipDport != nil {
		ki := p.emitInv(0, segInvSipDport, pl.invSipDport, v)
		ki = p.emitInv(ki, segInvDipDport, pl.invDipDport, v)
		ki = p.emitInv(ki, segInvSipDip, pl.invSipDip, v)
		p.tally.Totals[segInvSipDport] += dv
		p.tally.Totals[segInvDipDport] += dv
		p.tally.Totals[segInvSipDip] += dv
		inv = p.invs[:ki]
	}
	p.sink.EmitOps(p.ops[:k], inv)
}

// applyService emits the service filter's bit-set ops for one
// {DIP,Dport} key and counts the insertion, mirroring Services.Add.
//
//hifind:hot
func (p *Planner) applyService(key uint64) {
	m := p.ref.Services.BitPositions(key, p.bloomBuf[:])
	base := uint32(segServices) << segShift
	for i := 0; i < m; i++ {
		p.ops[i] = Op{Loc: base | p.bloomBuf[i], Delta: 0}
	}
	p.tally.Totals[segServices]++
	p.sink.EmitOps(p.ops[:m], nil)
}

// applyMonitor is the routed burst- or reflection-monitor update: the
// bucket writes lifted into InvOps under the monitor's own segment (for
// the burst monitor, the slot the classifier picked from the timestamp,
// which op batching does not carry).
//
//hifind:hot
func (p *Planner) applyMonitor(seg uint32, key uint64, v int32) {
	pl := p.plans.reflect
	if seg == segReflect {
		p.ref.Reflect.FillPlan(key, sketch.PowersOf(key), pl)
	} else {
		pl = p.plans.burst
		p.ref.Burst.FillPlan(key, sketch.PowersOf(key), pl)
	}
	ki := p.emitInv(0, seg, pl, v)
	p.tally.Totals[seg] += int64(v)
	p.sink.EmitOps(nil, p.invs[:ki])
}

// emitIdx appends one op per stage for a uint32-indexed plan.
//
//hifind:hot
func (p *Planner) emitIdx(k int, seg uint32, idx []uint32, v int32) int {
	base := seg << segShift
	cb := p.geom.segs[seg].routeBits
	for j, ix := range idx {
		p.ops[k] = Op{Loc: base | uint32(j)<<cb | ix, Delta: v}
		k++
	}
	return k
}

// emitOff appends one op per stage for an int32-offset (2D) plan.
//
//hifind:hot
func (p *Planner) emitOff(k int, seg uint32, offs []int32, v int32) int {
	base := seg << segShift
	cb := p.geom.segs[seg].routeBits
	for j, off := range offs {
		p.ops[k] = Op{Loc: base | uint32(j)<<cb | uint32(off), Delta: v}
		k++
	}
	return k
}

// emitInv appends one InvOp per stage for an invertible-sketch plan.
//
//hifind:hot
func (p *Planner) emitInv(ki int, seg uint32, pl *invsketch.Plan, v int32) int {
	base := seg << segShift
	cb := p.geom.segs[seg].routeBits
	key, fp := pl.Key(), pl.Fp()
	for j, ix := range pl.Indices() {
		p.invs[ki] = InvOp{Key: key, Loc: base | uint32(j)<<cb | ix, V: v, Fp: fp}
		ki++
	}
	return ki
}
