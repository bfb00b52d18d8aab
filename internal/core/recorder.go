package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"github.com/hifind/hifind/internal/bloom"
	"github.com/hifind/hifind/internal/burst"
	"github.com/hifind/hifind/internal/flowcache"
	"github.com/hifind/hifind/internal/invsketch"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/revsketch"
	"github.com/hifind/hifind/internal/sketch"
	"github.com/hifind/hifind/internal/sketch2d"
)

// Orientation selects which direction of edge crossing a recorder
// protects. The paper's deployment watches attacks entering the edge
// (Ingress: inbound SYNs vs outbound SYN/ACKs); the same machinery pointed
// the other way detects compromised internal hosts scanning or flooding
// the outside world.
type Orientation int

// Orientations. The RecorderConfig zero value means Ingress.
const (
	Ingress Orientation = iota + 1
	Egress
)

// String names the orientation.
func (o Orientation) String() string {
	switch o {
	case Ingress:
		return "ingress"
	case Egress:
		return "egress"
	default:
		return fmt.Sprintf("orientation(%d)", int(o))
	}
}

// InferenceEngine selects how offender keys are recovered from the
// heavy-change signal at detection time. The choice is part of
// RecorderConfig: the invertible engine records into
// three additional sketches, so recorders on different inference
// engines hold structurally different state and must not merge.
type InferenceEngine int

const (
	// InferenceReverse is the paper's reverse-hashing INFERENCE over
	// the modular-hash candidate space (package revsketch) — the
	// witness engine the differential suite compares against.
	InferenceReverse InferenceEngine = iota
	// InferenceInvertible records each key's folded material into
	// bucketized invertible sketches (package invsketch) alongside the
	// reversible set, and recovers offender keys with an O(buckets)
	// decode instead of the reverse-hashing search.
	InferenceInvertible
)

// String names the inference engine.
func (e InferenceEngine) String() string {
	switch e {
	case InferenceReverse:
		return "reverse"
	case InferenceInvertible:
		return "invertible"
	default:
		return fmt.Sprintf("inference(%d)", int(e))
	}
}

// RecorderConfig sizes the sketch set. The zero value is replaced by the
// paper's §5.1 configuration (PaperRecorderConfig).
type RecorderConfig struct {
	// Seed derives every hash function; recorders sharing a seed are
	// combinable across routers.
	Seed uint64
	// Orientation picks the protected direction (default Ingress).
	Orientation Orientation
	// RS48 is the geometry of the two 48-bit reversible sketches
	// ({SIP,Dport} and {DIP,Dport}); RS64 of the {SIP,DIP} sketch.
	RS48, RS64 revsketch.Params
	// Verifier is the geometry of the k-ary verifier sketches paired with
	// each reversible sketch.
	Verifier sketch.Params
	// Original is the geometry of the OS({DIP,Dport}, #SYN) sketch.
	Original sketch.Params
	// TwoD is the geometry of the two 2D classification sketches.
	TwoD sketch2d.Params
	// ServiceCapacity sizes the active-service Bloom filter.
	ServiceCapacity int
	// Inference selects the offender-key recovery engine (default
	// InferenceReverse). InferenceInvertible additionally records into
	// the three invertible sketches sized by Inv48/Inv64.
	Inference InferenceEngine
	// Inv48 is the geometry of the two 48-bit invertible sketches
	// ({SIP,Dport} and {DIP,Dport}); Inv64 of the {SIP,DIP} sketch.
	// Only consulted when Inference is InferenceInvertible, but always
	// populated so configurations compare field-wise.
	Inv48, Inv64 invsketch.Params
	// BurstSlots, when positive, enables the ALBUS-style sub-interval
	// burst monitor: BurstSlots invertible sketches (geometry Burst,
	// shared hashing) cycle through wall-clock windows of BurstWindow,
	// recording the {DIP,Dport} #SYN−#SYN/ACK signal per sub-interval so
	// pulse floods shorter than one EWMA interval stay visible. Zero
	// disables the monitor; BurstWindow must be positive when enabled.
	BurstSlots  int
	BurstWindow time.Duration
	// Burst is the per-slot burst-monitor geometry; Reflect the
	// reflection monitor's. Like Inv48/Inv64 they are always populated
	// so configurations compare field-wise even when disabled.
	Burst invsketch.Params
	// Reflection enables the reflection/amplification monitor: one
	// invertible sketch over {DIP, service Sport} recording inbound
	// SYN/ACKs minus outbound SYNs, so unsolicited handshake responses
	// (reflected floods) accumulate positive mass while benign round
	// trips cancel to zero.
	Reflection bool
	Reflect    invsketch.Params
	// FlowCache, when positive, bounds an exact flow-aggregation cache
	// installed in front of the connection lane: per-connection updates
	// accumulate in the table and flush as weighted updates on eviction
	// and at rotation, leaving sketch state byte-identical to the
	// cache-less recorder (internal/flowcache). Zero disables the
	// cache. The field participates in Compatible's configuration
	// equality, so cached and cache-less participants of an aggregated
	// deployment fail loudly at Merge time instead of silently skewing
	// per-router telemetry.
	FlowCache int
}

// PaperRecorderConfig returns the configuration of paper §5.1 (13.2 MB).
func PaperRecorderConfig(seed uint64) RecorderConfig {
	return RecorderConfig{
		Seed:            seed,
		RS48:            revsketch.Params48(),
		RS64:            revsketch.Params64(),
		Verifier:        sketch.Params{Stages: 6, Buckets: 1 << 14},
		Original:        sketch.Params{Stages: 6, Buckets: 1 << 14},
		TwoD:            sketch2d.PaperParams(),
		ServiceCapacity: 1 << 20,
		Inv48:           invsketch.Params48(),
		Inv64:           invsketch.Params64(),
		Burst:           invsketch.Params48(),
		Reflect:         invsketch.Params48(),
	}
}

// NeedsInvOps reports whether recorders built from this configuration
// carry any invertible-sketch structure — the inference set, the burst
// monitor or the reflection monitor — and therefore whether the sharded
// pipeline must provision its InvOp lane.
func (c RecorderConfig) NeedsInvOps() bool {
	return c.Inference == InferenceInvertible || c.BurstSlots > 0 || c.Reflection
}

// TestRecorderConfig returns a scaled-down configuration for fast tests:
// the same structure set with smaller tables (24-bit reversible keys would
// not fit real addresses, so key widths stay at 48/64 bits and only bucket
// counts shrink).
func TestRecorderConfig(seed uint64) RecorderConfig {
	cfg := PaperRecorderConfig(seed)
	// RS64 keeps the paper's 2^16 buckets: its 4-bit chunks are what keep
	// reverse hashing tractable once several {SIP,DIP} keys are heavy at
	// once (3-bit chunks saturate and the inference search degenerates).
	cfg.Verifier.Buckets = 1 << 12
	cfg.Original.Buckets = 1 << 12
	cfg.TwoD.XBuckets = 1 << 10
	cfg.ServiceCapacity = 1 << 16
	cfg.Inv48.Buckets = 1 << 9
	cfg.Inv64.Buckets = 1 << 9
	cfg.Burst.Buckets = 1 << 9
	cfg.Reflect.Buckets = 1 << 9
	return cfg
}

// Recorder is the streaming data-recording front end of HiFIND: the three
// reversible sketches, their verifiers, the original sketch, the two 2D
// sketches and the active-service Bloom filter (paper §5.1). A Recorder
// holds one interval's traffic; detection snapshots it and Reset starts
// the next interval. Recorders are the unit of multi-router aggregation:
// Merge sums compatible recorders by sketch linearity.
//
// Recorder methods are not safe for concurrent use.
type Recorder struct {
	cfg RecorderConfig

	// Reversible sketches, value #SYN−#SYN/ACK (paper §3.3).
	RSSipDport *revsketch.Sketch
	RSDipDport *revsketch.Sketch
	RSSipDip   *revsketch.Sketch
	// Verifier sketches, same keys and value, conventional hashing.
	VerSipDport *sketch.Sketch
	VerDipDport *sketch.Sketch
	VerSipDip   *sketch.Sketch
	// Original sketch, value #SYN, key {DIP,Dport} — the #SYN side of the
	// Phase-3 ratio heuristic.
	OSDipDport *sketch.Sketch
	// 2D sketches: x={SIP,Dport}×y={DIP} and x={SIP,DIP}×y={Dport}.
	TwoDSipDportXDip *sketch2d.Sketch
	TwoDSipDipXDport *sketch2d.Sketch
	// Invertible sketches, same keys and value as the reversible set —
	// nil unless cfg.Inference is InferenceInvertible. They carry the
	// folded key material the O(buckets) decode recovers offenders from.
	InvSipDport *invsketch.Sketch
	InvDipDport *invsketch.Sketch
	InvSipDip   *invsketch.Sketch
	// Burst is the sub-interval burst monitor over {DIP,Dport} — nil
	// unless cfg.BurstSlots is positive. Reflect is the reflection
	// monitor over {DIP, service Sport} — nil unless cfg.Reflection.
	// Both bypass the flow cache: their updates apply at observe time
	// (the cache drops timestamps the burst monitor needs).
	Burst   *burst.Array
	Reflect *invsketch.Sketch
	// Services remembers {DIP,Dport} pairs that have produced SYN/ACKs —
	// cross-interval state for the misconfiguration filter (§3.4).
	Services *bloom.Filter

	// in is the ingestion core with the recorder itself as its direct
	// applier; it also holds the flow cache and the packet and
	// memory-access counters.
	in ingest
	// plans is the direct applier's preallocated hash-plan scratch — one
	// bucket plan per structure, filled and applied once per update.
	plans updatePlans
}

// updatePlans holds one reusable bucket plan per recorder structure.
type updatePlans struct {
	rsSipDport, rsDipDport, rsSipDip *revsketch.Plan
	verSipDport                      *sketch.Plan
	verDipDport                      *sketch.Plan
	verSipDip                        *sketch.Plan
	osDipDport                       *sketch.Plan
	twoDSipDportXDip                 *sketch2d.Plan
	twoDSipDipXDport                 *sketch2d.Plan
	// Invertible-sketch plans, nil in reverse-inference mode.
	invSipDport, invDipDport, invSipDip *invsketch.Plan
	// Burst and reflection monitor plans, nil when disabled.
	burst, reflect *invsketch.Plan
}

// NewRecorder builds an empty recorder.
func NewRecorder(cfg RecorderConfig) (*Recorder, error) {
	if cfg.Seed == 0 {
		return nil, fmt.Errorf("core: recorder seed must be nonzero (shared across routers)")
	}
	if cfg.ServiceCapacity < 1 {
		return nil, fmt.Errorf("core: service capacity %d < 1", cfg.ServiceCapacity)
	}
	if cfg.Orientation == 0 {
		cfg.Orientation = Ingress
	}
	if cfg.Orientation != Ingress && cfg.Orientation != Egress {
		return nil, fmt.Errorf("core: unknown orientation %d", cfg.Orientation)
	}
	r := &Recorder{cfg: cfg}
	var err error
	// Distinct derived seeds keep the structures independent while still
	// being reproducible from the one configured seed.
	if r.RSSipDport, err = revsketch.New(cfg.RS48, cfg.Seed^0x01); err != nil {
		return nil, fmt.Errorf("core: RS{SIP,Dport}: %w", err)
	}
	if r.RSDipDport, err = revsketch.New(cfg.RS48, cfg.Seed^0x02); err != nil {
		return nil, fmt.Errorf("core: RS{DIP,Dport}: %w", err)
	}
	if r.RSSipDip, err = revsketch.New(cfg.RS64, cfg.Seed^0x03); err != nil {
		return nil, fmt.Errorf("core: RS{SIP,DIP}: %w", err)
	}
	if r.VerSipDport, err = sketch.New(cfg.Verifier, cfg.Seed^0x04); err != nil {
		return nil, fmt.Errorf("core: verifier {SIP,Dport}: %w", err)
	}
	if r.VerDipDport, err = sketch.New(cfg.Verifier, cfg.Seed^0x05); err != nil {
		return nil, fmt.Errorf("core: verifier {DIP,Dport}: %w", err)
	}
	if r.VerSipDip, err = sketch.New(cfg.Verifier, cfg.Seed^0x06); err != nil {
		return nil, fmt.Errorf("core: verifier {SIP,DIP}: %w", err)
	}
	if r.OSDipDport, err = sketch.New(cfg.Original, cfg.Seed^0x07); err != nil {
		return nil, fmt.Errorf("core: OS{DIP,Dport}: %w", err)
	}
	if r.TwoDSipDportXDip, err = sketch2d.New(cfg.TwoD, cfg.Seed^0x08); err != nil {
		return nil, fmt.Errorf("core: 2D {SIP,Dport}×{DIP}: %w", err)
	}
	if r.TwoDSipDipXDport, err = sketch2d.New(cfg.TwoD, cfg.Seed^0x09); err != nil {
		return nil, fmt.Errorf("core: 2D {SIP,DIP}×{Dport}: %w", err)
	}
	if r.Services, err = bloom.New(cfg.ServiceCapacity, 0.01, cfg.Seed^0x0a); err != nil {
		return nil, fmt.Errorf("core: service filter: %w", err)
	}
	switch cfg.Inference {
	case InferenceReverse:
	case InferenceInvertible:
		if r.InvSipDport, err = invsketch.New(cfg.Inv48, cfg.Seed^0x0b); err != nil {
			return nil, fmt.Errorf("core: Inv{SIP,Dport}: %w", err)
		}
		if r.InvDipDport, err = invsketch.New(cfg.Inv48, cfg.Seed^0x0c); err != nil {
			return nil, fmt.Errorf("core: Inv{DIP,Dport}: %w", err)
		}
		if r.InvSipDip, err = invsketch.New(cfg.Inv64, cfg.Seed^0x0d); err != nil {
			return nil, fmt.Errorf("core: Inv{SIP,DIP}: %w", err)
		}
	default:
		return nil, fmt.Errorf("core: unknown inference engine %d", cfg.Inference)
	}
	if cfg.BurstSlots != 0 {
		bc := burst.Config{Slots: cfg.BurstSlots, Window: cfg.BurstWindow, Params: cfg.Burst}
		if r.Burst, err = burst.New(bc, cfg.Seed^0x0e); err != nil {
			return nil, fmt.Errorf("core: burst monitor: %w", err)
		}
	}
	if cfg.Reflection {
		if r.Reflect, err = invsketch.New(cfg.Reflect, cfg.Seed^0x0f); err != nil {
			return nil, fmt.Errorf("core: reflection monitor: %w", err)
		}
	}
	r.plans = r.newPlans()
	if err := r.in.init(r, r); err != nil {
		return nil, err
	}
	return r, nil
}

// newPlans sizes one bucket plan per structure.
func (r *Recorder) newPlans() updatePlans {
	p := updatePlans{
		rsSipDport:       r.RSSipDport.NewPlan(),
		rsDipDport:       r.RSDipDport.NewPlan(),
		rsSipDip:         r.RSSipDip.NewPlan(),
		verSipDport:      r.VerSipDport.NewPlan(),
		verDipDport:      r.VerDipDport.NewPlan(),
		verSipDip:        r.VerSipDip.NewPlan(),
		osDipDport:       r.OSDipDport.NewPlan(),
		twoDSipDportXDip: r.TwoDSipDportXDip.NewPlan(),
		twoDSipDipXDport: r.TwoDSipDipXDport.NewPlan(),
	}
	if r.InvSipDport != nil {
		p.invSipDport = r.InvSipDport.NewPlan()
		p.invDipDport = r.InvDipDport.NewPlan()
		p.invSipDip = r.InvSipDip.NewPlan()
	}
	if r.Burst != nil {
		p.burst = r.Burst.NewPlan()
	}
	if r.Reflect != nil {
		p.reflect = r.Reflect.NewPlan()
	}
	return p
}

// fillConn fills every connection-lane plan for (sip, dip, dport)
// against r's hash tables — the OS plan only on the SYN side. Each key's
// hash work happens exactly once: the five hashed values (three packed
// connection keys plus the two 2D y-keys) get their polynomial powers
// computed up front and fanned out to every structure consuming them.
//
//hifind:hot
func (p *updatePlans) fillConn(r *Recorder, sip, dip netmodel.IPv4, dport uint16, syn bool) {
	kSipDport := netmodel.PackSIPDport(sip, dport)
	kDipDport := netmodel.PackDIPDport(dip, dport)
	kSipDip := netmodel.PackSIPDIP(sip, dip)

	ppSipDport := sketch.PowersOf(kSipDport)
	ppDipDport := sketch.PowersOf(kDipDport)
	ppSipDip := sketch.PowersOf(kSipDip)
	ppDip := sketch.PowersOf(uint64(dip))
	ppDport := sketch.PowersOf(uint64(dport))

	r.RSSipDport.FillPlan(kSipDport, p.rsSipDport)
	r.RSDipDport.FillPlan(kDipDport, p.rsDipDport)
	r.RSSipDip.FillPlan(kSipDip, p.rsSipDip)
	r.VerSipDport.FillPlan(ppSipDport, p.verSipDport)
	r.VerDipDport.FillPlan(ppDipDport, p.verDipDport)
	r.VerSipDip.FillPlan(ppSipDip, p.verSipDip)
	if syn {
		r.OSDipDport.FillPlan(ppDipDport, p.osDipDport)
	}
	r.TwoDSipDportXDip.FillPlan(ppSipDport, ppDip, p.twoDSipDportXDip)
	r.TwoDSipDipXDport.FillPlan(ppSipDip, ppDport, p.twoDSipDipXDport)
	if p.invSipDport != nil {
		r.InvSipDport.FillPlan(kSipDport, ppSipDport, p.invSipDport)
		r.InvDipDport.FillPlan(kDipDport, ppDipDport, p.invDipDport)
		r.InvSipDip.FillPlan(kSipDip, ppSipDip, p.invSipDip)
	}
}

// Config returns the recorder configuration.
func (r *Recorder) Config() RecorderConfig { return r.cfg }

// Observe records one packet (see ingest.observe for the classes that
// matter): counter writes go straight to the cells.
func (r *Recorder) Observe(pkt netmodel.Packet) { r.in.observe(pkt) }

// ObserveFlow records a NetFlow-style flow record (the evaluation traces
// in the paper are NetFlow exports). Each record applies as one exact
// weighted update per lane — sketch linearity makes Update(k, v·c)
// identical to c repeated Update(k, v) — so replay cost is O(1) per
// record instead of O(SYNs).
func (r *Recorder) ObserveFlow(rec netmodel.FlowRecord) { r.in.observeFlow(rec) }

// applyConn is the direct connection lane: the plan fill, then one
// UpdateAt per structure. State is bit-identical to the reference
// applier: power-basis Poly4 evaluation equals Horner on the reduced
// field, plans cache exactly the indices Update derives, and weighted
// adds equal repeated adds by linearity.
//
//hifind:hot
func (r *Recorder) applyConn(sip, dip netmodel.IPv4, dport uint16, v, syn int32) {
	p := &r.plans
	p.fillConn(r, sip, dip, dport, syn != 0)
	r.RSSipDport.UpdateAt(p.rsSipDport, v)
	r.RSDipDport.UpdateAt(p.rsDipDport, v)
	r.RSSipDip.UpdateAt(p.rsSipDip, v)
	r.VerSipDport.UpdateAt(p.verSipDport, v)
	r.VerDipDport.UpdateAt(p.verDipDport, v)
	r.VerSipDip.UpdateAt(p.verSipDip, v)
	if syn != 0 {
		r.OSDipDport.UpdateAt(p.osDipDport, syn)
	}
	r.TwoDSipDportXDip.UpdateAt(p.twoDSipDportXDip, v)
	r.TwoDSipDipXDport.UpdateAt(p.twoDSipDipXDport, v)
	if p.invSipDport != nil {
		r.InvSipDport.UpdateAt(p.invSipDport, v)
		r.InvDipDport.UpdateAt(p.invDipDport, v)
		r.InvSipDip.UpdateAt(p.invSipDip, v)
	}
}

// applyService is the direct service-filter insert.
//
//hifind:hot
func (r *Recorder) applyService(key uint64) { r.Services.Add(key) }

// applyMonitor is the direct burst- or reflection-monitor update.
//
//hifind:hot
func (r *Recorder) applyMonitor(seg uint32, key uint64, v int32) {
	if seg == segReflect {
		r.Reflect.Update(key, v)
		return
	}
	r.Burst.Update(int(seg-segBurst0), key, v)
}

// FlushCache materializes every pending flow-cache aggregate into the
// sketches. A no-op without a cache. Runs automatically before
// marshaling and merging; the detector flushes before reading interval
// snapshots.
func (r *Recorder) FlushCache() {
	if r.in.cache == nil {
		return
	}
	r.in.cache.FlushAll()
}

// CacheStats returns the flow cache's traffic counters (zero without a
// cache).
func (r *Recorder) CacheStats() flowcache.Stats {
	if r.in.cache == nil {
		return flowcache.Stats{}
	}
	return r.in.cache.Stats()
}

// CacheOccupancy returns the resident fraction of the flow cache (zero
// without a cache).
func (r *Recorder) CacheOccupancy() float64 {
	if r.in.cache == nil {
		return 0
	}
	return r.in.cache.Occupancy()
}

// Packets returns how many packets were observed.
func (r *Recorder) Packets() int64 { return r.in.packets }

// MemoryAccesses returns the cumulative counter-write count, for the
// per-packet access benchmarks.
func (r *Recorder) MemoryAccesses() int64 { return r.in.accesses }

// MemoryBytes totals the counter memory of every structure, the number
// compared in paper Table 9.
func (r *Recorder) MemoryBytes() int {
	total := r.RSSipDport.MemoryBytes() + r.RSDipDport.MemoryBytes() + r.RSSipDip.MemoryBytes() +
		r.VerSipDport.MemoryBytes() + r.VerDipDport.MemoryBytes() + r.VerSipDip.MemoryBytes() +
		r.OSDipDport.MemoryBytes() +
		r.TwoDSipDportXDip.MemoryBytes() + r.TwoDSipDipXDport.MemoryBytes()
	if r.InvSipDport != nil {
		total += r.InvSipDport.MemoryBytes() + r.InvDipDport.MemoryBytes() + r.InvSipDip.MemoryBytes()
	}
	if r.Burst != nil {
		total += r.Burst.MemoryBytes()
	}
	if r.Reflect != nil {
		total += r.Reflect.MemoryBytes()
	}
	return total
}

// Reset clears per-interval counters. The active-service memory is
// long-lived and survives (misconfigured destinations must stay
// distinguishable from services that were active in earlier intervals).
func (r *Recorder) Reset() {
	r.RSSipDport.Reset()
	r.RSDipDport.Reset()
	r.RSSipDip.Reset()
	r.VerSipDport.Reset()
	r.VerDipDport.Reset()
	r.VerSipDip.Reset()
	r.OSDipDport.Reset()
	r.TwoDSipDportXDip.Reset()
	r.TwoDSipDipXDport.Reset()
	if r.InvSipDport != nil {
		r.InvSipDport.Reset()
		r.InvDipDport.Reset()
		r.InvSipDip.Reset()
	}
	if r.Burst != nil {
		r.Burst.Reset()
	}
	if r.Reflect != nil {
		r.Reflect.Reset()
	}
	// Pending cache aggregates belong to the interval being discarded;
	// drop them (and the interval's cache stats) rather than flush them
	// into the cleared sketches.
	if r.in.cache != nil {
		r.in.cache.Clear()
	}
	r.in.packets = 0
}

// Compatible reports whether two recorders share seed and geometry and can
// therefore be merged.
func (r *Recorder) Compatible(o *Recorder) bool {
	return r.cfg == o.cfg
}

// Merge sums other recorders into r (coefficient 1 each): the multi-router
// aggregation of paper §3.1. All operands must be compatible. Every
// operand's flow cache (and the receiver's) flushes first, so the sums
// cover all recorded traffic; operand cache stats fold into the
// receiver so aggregated telemetry still counts every router's cache
// traffic.
func (r *Recorder) Merge(others ...*Recorder) error {
	r.FlushCache()
	for n, o := range others {
		if !r.Compatible(o) {
			return fmt.Errorf("core: merge operand %d incompatible", n)
		}
		o.FlushCache()
		if r.in.cache != nil && o.in.cache != nil {
			r.in.cache.AddStats(o.in.cache.Stats())
		}
		var err error
		merge := func(dst, src *revsketch.Sketch) *revsketch.Sketch {
			if err != nil {
				return dst
			}
			var out *revsketch.Sketch
			out, err = revsketch.Combine([]int32{1, 1}, []*revsketch.Sketch{dst, src})
			return out
		}
		mergeK := func(dst, src *sketch.Sketch) *sketch.Sketch {
			if err != nil {
				return dst
			}
			var out *sketch.Sketch
			out, err = sketch.Combine([]int32{1, 1}, []*sketch.Sketch{dst, src})
			return out
		}
		merge2D := func(dst, src *sketch2d.Sketch) *sketch2d.Sketch {
			if err != nil {
				return dst
			}
			var out *sketch2d.Sketch
			out, err = sketch2d.Combine([]int32{1, 1}, []*sketch2d.Sketch{dst, src})
			return out
		}
		r.RSSipDport = merge(r.RSSipDport, o.RSSipDport)
		r.RSDipDport = merge(r.RSDipDport, o.RSDipDport)
		r.RSSipDip = merge(r.RSSipDip, o.RSSipDip)
		r.VerSipDport = mergeK(r.VerSipDport, o.VerSipDport)
		r.VerDipDport = mergeK(r.VerDipDport, o.VerDipDport)
		r.VerSipDip = mergeK(r.VerSipDip, o.VerSipDip)
		r.OSDipDport = mergeK(r.OSDipDport, o.OSDipDport)
		r.TwoDSipDportXDip = merge2D(r.TwoDSipDportXDip, o.TwoDSipDportXDip)
		r.TwoDSipDipXDport = merge2D(r.TwoDSipDipXDport, o.TwoDSipDipXDport)
		if r.InvSipDport != nil {
			mergeInv := func(dst, src *invsketch.Sketch) *invsketch.Sketch {
				if err != nil {
					return dst
				}
				var out *invsketch.Sketch
				out, err = invsketch.Combine([]int32{1, 1}, []*invsketch.Sketch{dst, src})
				return out
			}
			r.InvSipDport = mergeInv(r.InvSipDport, o.InvSipDport)
			r.InvDipDport = mergeInv(r.InvDipDport, o.InvDipDport)
			r.InvSipDip = mergeInv(r.InvSipDip, o.InvSipDip)
		}
		if r.Burst != nil && err == nil {
			var mb *burst.Array
			if mb, err = burst.Combine([]int32{1, 1}, []*burst.Array{r.Burst, o.Burst}); err == nil {
				r.Burst = mb
			}
		}
		if r.Reflect != nil && err == nil {
			var mr *invsketch.Sketch
			if mr, err = invsketch.Combine([]int32{1, 1}, []*invsketch.Sketch{r.Reflect, o.Reflect}); err == nil {
				r.Reflect = mr
			}
		}
		if err != nil {
			return fmt.Errorf("core: merge: %w", err)
		}
		if err := r.Services.Union(o.Services); err != nil {
			return fmt.Errorf("core: merge: %w", err)
		}
		r.in.packets += o.in.packets
	}
	return nil
}

// MarshalBinary serializes every structure for transport to an
// aggregation site. The encoding is a sequence of length-prefixed blocks.
// Pending flow-cache aggregates flush first: the wire format carries
// fully materialized sketch state, byte-identical to a cache-less
// recorder's, so cache configuration never leaks into the encoding.
func (r *Recorder) MarshalBinary() ([]byte, error) {
	r.FlushCache()
	blocks := make([][]byte, 0, 10)
	appendBlock := func(data []byte, err error) error {
		if err != nil {
			return err
		}
		blocks = append(blocks, data)
		return nil
	}
	marshals := []func() ([]byte, error){
		r.RSSipDport.MarshalBinary, r.RSDipDport.MarshalBinary, r.RSSipDip.MarshalBinary,
		r.VerSipDport.MarshalBinary, r.VerDipDport.MarshalBinary, r.VerSipDip.MarshalBinary,
		r.OSDipDport.MarshalBinary,
		r.TwoDSipDportXDip.MarshalBinary, r.TwoDSipDipXDport.MarshalBinary,
		r.Services.MarshalBinary,
	}
	if r.InvSipDport != nil {
		// Invertible-mode blocks append after the common set, so the
		// reverse-mode layout is unchanged and a mode mismatch fails the
		// block count check rather than silently misparsing.
		marshals = append(marshals,
			r.InvSipDport.MarshalBinary, r.InvDipDport.MarshalBinary, r.InvSipDip.MarshalBinary)
	}
	if r.Burst != nil {
		marshals = append(marshals, r.Burst.MarshalBinary)
	}
	if r.Reflect != nil {
		marshals = append(marshals, r.Reflect.MarshalBinary)
	}
	for _, m := range marshals {
		if err := appendBlock(m()); err != nil {
			return nil, fmt.Errorf("core: marshal recorder: %w", err)
		}
	}
	size := 8
	for _, b := range blocks {
		size += 4 + len(b)
	}
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint64(out, uint64(r.in.packets))
	for _, b := range blocks {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
		out = append(out, b...)
	}
	return out, nil
}

// UnmarshalBinary loads serialized state into a recorder constructed with
// the same configuration. The block framing — block count, every
// length, no trailing bytes — is checked before any block decodes, so a
// truncated or over-long payload fails with the recorder unchanged.
func (r *Recorder) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("core: recorder data truncated")
	}
	unmarshals := []func([]byte) error{
		r.RSSipDport.UnmarshalBinary, r.RSDipDport.UnmarshalBinary, r.RSSipDip.UnmarshalBinary,
		r.VerSipDport.UnmarshalBinary, r.VerDipDport.UnmarshalBinary, r.VerSipDip.UnmarshalBinary,
		r.OSDipDport.UnmarshalBinary,
		r.TwoDSipDportXDip.UnmarshalBinary, r.TwoDSipDipXDport.UnmarshalBinary,
		r.Services.UnmarshalBinary,
	}
	if r.InvSipDport != nil {
		unmarshals = append(unmarshals,
			r.InvSipDport.UnmarshalBinary, r.InvDipDport.UnmarshalBinary, r.InvSipDip.UnmarshalBinary)
	}
	if r.Burst != nil {
		unmarshals = append(unmarshals, r.Burst.UnmarshalBinary)
	}
	if r.Reflect != nil {
		unmarshals = append(unmarshals, r.Reflect.UnmarshalBinary)
	}
	blocks := make([][]byte, len(unmarshals))
	rest := data[8:]
	for i := range blocks {
		if len(rest) < 4 {
			return fmt.Errorf("core: recorder block %d missing", i)
		}
		n := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if len(rest) < n {
			return fmt.Errorf("core: recorder block %d truncated", i)
		}
		blocks[i], rest = rest[:n], rest[n:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("core: %d trailing bytes after recorder blocks", len(rest))
	}
	for i, u := range unmarshals {
		if err := u(blocks[i]); err != nil {
			return fmt.Errorf("core: recorder block %d: %w", i, err)
		}
	}
	r.in.packets = int64(binary.LittleEndian.Uint64(data))
	// The blocks rebuild each structure in place; re-size the direct
	// applier's plans in case the loaded geometry differs from the one
	// the recorder was constructed with. Any aggregates still cached
	// belong to the state just replaced, so they are dropped, not flushed.
	r.plans = r.newPlans()
	if r.in.cache != nil {
		r.in.cache.Clear()
	}
	return nil
}
