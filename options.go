package hifind

import (
	"fmt"
	"time"

	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/telemetry"
)

// config carries everything an option can set.
type config struct {
	seed     uint64
	interval time.Duration
	// thresholdPerSecond is the paper's detection threshold unit: one
	// un-responded SYN per second by default (§5.1); the per-interval
	// threshold is derived from it and the interval length.
	thresholdPerSecond float64
	alpha              float64
	compact            bool
	quorum             int
	maxKeys            int
	disablePhase2      bool
	disablePhase3      bool
	minPersist         int
	minSynRatio        float64
	egress             bool
	invertible         bool
	flowCache          int
	burstSlots         int
	persistScan        bool
	reflection         bool
	// Sharding knobs: workers 0 records inline, and an inline
	// detector ignores the other three.
	workers    int
	batchSize  int
	queueDepth int
	shed       bool
	// Observability (nil means uninstrumented — zero hot-path cost).
	reg  *telemetry.Registry
	sink telemetry.Sink
}

func defaultConfig() config {
	return config{
		seed:               0x48694649, // "HiFI"; override for multi-site deployments
		interval:           time.Minute,
		thresholdPerSecond: 1,
		alpha:              0.5,
	}
}

// Option customizes a Detector or Recorder.
type Option func(*config) error

// newConfig applies opts over the defaults.
func newConfig(opts []Option) (config, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return config{}, err
		}
	}
	return cfg, nil
}

// WithSeed sets the hash seed. Every HiFIND instance that participates in
// one aggregated deployment must share the seed, or their sketches cannot
// be combined.
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		if seed == 0 {
			return fmt.Errorf("hifind: seed must be nonzero")
		}
		c.seed = seed
		return nil
	}
}

// WithInterval sets the measurement interval length (default one minute,
// the paper's setting). It scales the detection threshold: the paper's
// unit is un-responded SYNs per second.
func WithInterval(d time.Duration) Option {
	return func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("hifind: non-positive interval %v", d)
		}
		c.interval = d
		return nil
	}
}

// WithThresholdPerSecond sets the detection threshold in un-responded
// SYNs per second (default 1, as in paper §5.1).
func WithThresholdPerSecond(t float64) Option {
	return func(c *config) error {
		if t <= 0 {
			return fmt.Errorf("hifind: non-positive threshold %v", t)
		}
		c.thresholdPerSecond = t
		return nil
	}
}

// WithAlpha sets the EWMA smoothing constant of the forecast model
// (paper eq. 1), in (0,1].
func WithAlpha(a float64) Option {
	return func(c *config) error {
		if a <= 0 || a > 1 {
			return fmt.Errorf("hifind: alpha %v out of (0,1]", a)
		}
		c.alpha = a
		return nil
	}
}

// WithEgressMonitoring points the detector at traffic *leaving* the edge:
// outbound SYNs versus inbound SYN/ACKs. Use a second detector with this
// option alongside the default ingress one to catch compromised internal
// hosts scanning or flooding the outside world.
func WithEgressMonitoring() Option {
	return func(c *config) error {
		c.egress = true
		return nil
	}
}

// WithCompactSketches shrinks every sketch below the paper's 13.2 MB
// configuration (≈1.5 MB total). Accuracy degrades gracefully; intended
// for tests and memory-constrained deployments.
func WithCompactSketches() Option {
	return func(c *config) error {
		c.compact = true
		return nil
	}
}

// WithQuorum sets the reversible-sketch inference quorum (default: one
// less than the number of stages).
func WithQuorum(q int) Option {
	return func(c *config) error {
		if q < 1 {
			return fmt.Errorf("hifind: quorum %d < 1", q)
		}
		c.quorum = q
		return nil
	}
}

// WithMaxKeysPerStep caps the culprit keys recovered per detection step
// per interval (default 2048; the paper's stress test uses a top-100
// variant).
func WithMaxKeysPerStep(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("hifind: max keys %d < 1", n)
		}
		c.maxKeys = n
		return nil
	}
}

// WithoutClassification disables Phase 2 (2D-sketch reclassification of
// port scans) — an ablation switch.
func WithoutClassification() Option {
	return func(c *config) error {
		c.disablePhase2 = true
		return nil
	}
}

// WithoutFloodHeuristics disables Phase 3 (SYN-flooding false-positive
// reduction) — an ablation switch.
func WithoutFloodHeuristics() Option {
	return func(c *config) error {
		c.disablePhase3 = true
		return nil
	}
}

// WithFloodPersistence sets how many consecutive anomalous intervals a
// flooding victim needs before an alert is emitted (default 2).
func WithFloodPersistence(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("hifind: persistence %d < 1", n)
		}
		c.minPersist = n
		return nil
	}
}

// WithMinSynRatio sets the congestion filter's required #SYN : #SYN/ACK
// ratio (default 3).
func WithMinSynRatio(r float64) Option {
	return func(c *config) error {
		if r < 1 {
			return fmt.Errorf("hifind: SYN ratio %v < 1", r)
		}
		c.minSynRatio = r
		return nil
	}
}

// WithInvertibleInference selects the invertible-sketch inference engine
// for offender-key recovery: the recorder additionally maintains
// bucketized invertible sketches whose buckets fold the flow keys into
// linear counter groups, and interval-end key recovery decodes heavy
// forecast errors directly from the O(buckets) structure instead of
// running the reversible sketches' reverse-hashing candidate search.
// Alert output is unchanged — decoded keys are re-estimated and filtered
// against the same reversible-sketch error grids, and the differential
// suite proves both engines emit identical alerts on the golden traces —
// but the per-interval inference cost drops from the search's
// combinatorial candidate enumeration to a single linear scan.
//
// The option changes the recorder's structure set, so every participant
// of an aggregated deployment (remote Recorders, checkpoint files) must
// agree on it; mixing modes fails loudly at Merge/Unmarshal time.
func WithInvertibleInference() Option {
	return func(c *config) error {
		c.invertible = true
		return nil
	}
}

// WithFlowCache installs a bounded exact flow-aggregation cache of the
// given entry count in front of the sketch updates: per-connection
// updates accumulate in one table entry and flush into the sketches as
// exact weighted updates on eviction and at every rotation. Sketch
// state, alerts, packet counts and the memory-access budget stay
// byte-identical to the cache-less detector — the differential suite
// proves it on every golden trace — while skewed (elephant/mice)
// traffic replaces most per-packet sketch fan-outs with a single cache
// probe. Entries round up to a power of two; on a sharded detector
// (WithWorkers) the cache sits in front of op routing, and every
// producer (the default one and each from NewProducer) owns a private
// cache of this size.
//
// Serialized snapshots are always flushed first, so the wire format is
// unchanged and snapshots interchange freely with cache-less
// participants; merging live Recorder objects with differing cache
// configurations, by contrast, fails loudly.
func WithFlowCache(entries int) Option {
	return func(c *config) error {
		if entries < 1 {
			return fmt.Errorf("hifind: flow cache entries %d < 1", entries)
		}
		c.flowCache = entries
		return nil
	}
}

// WithBurstDetection adds the sub-interval burst monitor: the interval
// is cut into slots windows, each backed by its own invertible sketch,
// and a {DIP,Dport} key whose un-responded-SYN mass concentrates in one
// window while the interval total stays below the flood threshold
// raises a burst-flood alert. This is the pulse attack the
// interval-grain EWMA structurally cannot see — 48 SYNs in 4 seconds is
// invisible at a 60-per-minute threshold, devastating at the window
// scale. Slots must be in [1, 16]; 8 gives 7.5-second windows at the
// default one-minute interval.
func WithBurstDetection(slots int) Option {
	return func(c *config) error {
		if slots < 1 || slots > 16 {
			return fmt.Errorf("hifind: burst slots %d out of [1, 16]", slots)
		}
		c.burstSlots = slots
		return nil
	}
}

// WithPersistentFlowDetection adds the persistent-and-sparse flow
// detector: {SIP,Dport} keys sitting in the sub-threshold band of the
// raw un-responded-SYN counts interval after interval build a streak,
// and a long enough streak alerts. A scanner pacing itself below the
// per-interval threshold evades the EWMA channel entirely — the rate is
// steady, so the forecast absorbs it — but cannot avoid persisting.
func WithPersistentFlowDetection() Option {
	return func(c *config) error {
		c.persistScan = true
		return nil
	}
}

// WithReflectionDetection adds the reflection/amplification monitor: an
// invertible sketch over {local host, remote service port} that
// subtracts outbound SYNs and adds inbound SYN/ACKs. Benign round
// trips cancel; reflected floods — SYN/ACK backscatter from reflectors
// that never saw a SYN from us — accumulate and alert. These packet
// classes are invisible to the SYN-side structures the three-step
// pipeline reads.
func WithReflectionDetection() Option {
	return func(c *config) error {
		c.reflection = true
		return nil
	}
}

// WithWorkers shards recording across n worker goroutines, n ≥ 1 (see
// Detector). The default, 0, records inline on the calling goroutine.
// Sketch memory is two recorder sets more than inline (an active/spare
// flip-flop pair shared by all workers), so the paper's 13.2 MB becomes
// ≈40 MB — fixed, traffic-independent and independent of n.
func WithWorkers(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("hifind: workers %d < 0", n)
		}
		c.workers = n
		return nil
	}
}

// WithBatchSize sets how many routed counter ops a sharded producer
// accumulates per worker before shipping the batch (default 256; one
// packet expands to roughly a dozen ops across the recording
// structures). Larger batches amortize hand-off cost; smaller ones
// tighten interval boundaries for un-flushed producers. An inline
// detector ignores it.
func WithBatchSize(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("hifind: batch size %d < 1", n)
		}
		c.batchSize = n
		return nil
	}
}

// WithQueueDepth sets how many batches buffer per worker (default 4).
// An inline detector ignores it.
func WithQueueDepth(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("hifind: queue depth %d < 1", n)
		}
		c.queueDepth = n
		return nil
	}
}

// WithShedOnOverload makes sharded producers drop (and count — see
// Detector.Shed) whole events at admission when any worker queue is
// full, instead of blocking. Dropping before planning means a shed
// event touches no structure at all — sketch state never tears. Use
// for live capture, where stalling the reader would make the kernel
// drop the packets anyway; keep the default blocking policy for
// offline replay, which should be lossless. An inline detector ignores
// it.
func WithShedOnOverload() Option {
	return func(c *config) error {
		c.shed = true
		return nil
	}
}

// WithTelemetry attaches a metrics registry. The detector registers its
// hifind_* series (and, when sharded, its pipeline_* series) on it and keeps
// them current: packet/flow counters on the hot path, rotation duration,
// alert counts by type, sketch occupancy and inference candidate gauges
// at each interval end. Without this option the hot path carries nil
// metric handles and pays only a dead branch per call site.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *config) error {
		if reg == nil {
			return fmt.Errorf("hifind: nil telemetry registry")
		}
		c.reg = reg
		return nil
	}
}

// WithAlertSink routes structured detection events into sink: one
// "alert" event per final alert and one "interval" summary per rotation.
// Replaces printf-style reporting in operational deployments.
func WithAlertSink(sink telemetry.Sink) Option {
	return func(c *config) error {
		if sink == nil {
			return fmt.Errorf("hifind: nil alert sink")
		}
		c.sink = sink
		return nil
	}
}

// build materializes the internal configurations.
func (c config) build() (core.RecorderConfig, core.DetectorConfig) {
	rcfg := core.PaperRecorderConfig(c.seed)
	if c.compact {
		rcfg = core.TestRecorderConfig(c.seed)
	}
	if c.egress {
		rcfg.Orientation = core.Egress
	}
	if c.invertible {
		rcfg.Inference = core.InferenceInvertible
	}
	rcfg.FlowCache = c.flowCache
	if c.burstSlots > 0 {
		rcfg.BurstSlots = c.burstSlots
		rcfg.BurstWindow = c.interval / time.Duration(c.burstSlots)
	}
	rcfg.Reflection = c.reflection
	dcfg := core.DetectorConfig{
		Threshold:           c.thresholdPerSecond * c.interval.Seconds(),
		Alpha:               c.alpha,
		Quorum:              c.quorum,
		MaxKeysPerStep:      c.maxKeys,
		MinPersistIntervals: c.minPersist,
		MinSynRatio:         c.minSynRatio,
		DisablePhase2:       c.disablePhase2,
		DisablePhase3:       c.disablePhase3,
		PersistScan:         c.persistScan,
	}
	return rcfg, dcfg
}
