package hifind

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/pipeline"
	"github.com/hifind/hifind/internal/telemetry"
)

// Parallel is a HiFIND instance whose recording stage is key-sharded
// across worker goroutines (internal/pipeline): producers hash each
// packet once and route per-bucket counter deltas to the worker owning
// that slice of every sketch's buckets, all workers writing disjoint
// shards of one shared epoch recorder. Because counter updates on
// disjoint cells commute and everything else travels as scalar
// tallies, the rotated state — and therefore every alert and every
// saved checkpoint — is bit-identical to what a sequential Detector
// produces from the same packets (TestParallelEquivalence and
// TestShardedIdentityMatrix prove it), so the parallelism is free of
// accuracy cost.
//
// Concurrency contract: Observe and ObserveFlow may be called from ONE
// goroutine at a time (they feed a single internal batching producer);
// for multi-goroutine ingestion create one Producer per feeding
// goroutine with NewProducer. EndInterval, SaveState and Close must not
// run concurrently with ingestion on the same producer; Dropped and
// Shed may be read at any time.
type Parallel struct {
	det      *core.Detector
	rcfg     core.RecorderConfig
	interval time.Duration
	eng      *pipeline.Engine
	main     *pipeline.Producer
	dropped  atomic.Int64
	ins      instruments
	sink     telemetry.Sink
}

// NewParallel builds a sharded detector. Worker count defaults to
// runtime.GOMAXPROCS(0); tune with WithWorkers, WithBatchSize,
// WithQueueDepth and WithShedOnOverload. All other options mean exactly
// what they mean for New. Sketch memory is two recorder sets total (an
// active/spare flip-flop pair shared by all workers), so the paper's
// 13.2 MB becomes ≈26 MB regardless of the worker count — fixed,
// traffic-independent, and independent of N. With WithFlowCache each
// Producer additionally owns a private cache of the configured size.
func NewParallel(opts ...Option) (*Parallel, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	rcfg, dcfg := cfg.build()
	det, err := core.NewDetector(rcfg, dcfg)
	if err != nil {
		return nil, err
	}
	policy := pipeline.Block
	if cfg.shed {
		policy = pipeline.Shed
	}
	eng, err := pipeline.New(pipeline.Config{
		Recorder:   rcfg,
		Workers:    cfg.workers,
		BatchSize:  cfg.batchSize,
		QueueDepth: cfg.queueDepth,
		Policy:     policy,
		Telemetry:  cfg.reg,
	})
	if err != nil {
		return nil, err
	}
	p := &Parallel{
		det:      det,
		rcfg:     rcfg,
		interval: cfg.interval,
		eng:      eng,
		ins:      newInstruments(cfg.reg),
		sink:     cfg.sink,
	}
	p.main = eng.NewProducer()
	return p, nil
}

// Interval returns the configured interval length.
func (p *Parallel) Interval() time.Duration { return p.interval }

// Workers returns the shard count.
func (p *Parallel) Workers() int { return p.eng.Workers() }

// InferenceEngine names the active offender-key recovery engine — see
// Detector.InferenceEngine.
func (p *Parallel) InferenceEngine() string { return p.det.InferenceEngine().String() }

// Observe records one packet through the default producer. Single
// goroutine only — use NewProducer for concurrent ingestion.
//
//hifind:hot
func (p *Parallel) Observe(pkt Packet) {
	ip, ok := pkt.toInternal()
	if !ok {
		p.dropped.Add(1)
		p.ins.dropped.Inc()
		return
	}
	p.main.Ingest(pipeline.Event{Pkt: ip})
	p.ins.packets.Inc()
}

// ObserveFlow records one flow summary through the default producer.
// Single goroutine only — use NewProducer for concurrent ingestion.
//
//hifind:hot
func (p *Parallel) ObserveFlow(f Flow) {
	fr, ok := f.toInternal()
	if !ok {
		p.dropped.Add(1)
		p.ins.dropped.Inc()
		return
	}
	p.main.Ingest(pipeline.Event{Flow: fr, IsFlow: true})
	p.ins.flows.Inc()
}

// observeInternal feeds a pre-converted packet (replay path).
func (p *Parallel) observeInternal(pkt netmodel.Packet) {
	p.main.Ingest(pipeline.Event{Pkt: pkt})
	p.ins.packets.Inc()
}

// observeFlowInternal feeds a pre-converted flow record (replay path).
func (p *Parallel) observeFlowInternal(fr netmodel.FlowRecord) {
	p.main.Ingest(pipeline.Event{Flow: fr, IsFlow: true})
	p.ins.flows.Inc()
}

// Dropped returns how many packets were ignored as non-IPv4, summed
// atomically across all producers.
func (p *Parallel) Dropped() int64 { return p.dropped.Load() }

// Shed returns how many events the Shed backpressure policy dropped
// (always 0 under the default blocking policy, except for events racing
// Close).
func (p *Parallel) Shed() int64 { return p.eng.Shed() }

// MemoryBytes returns the total fixed sketch memory: the detection-side
// recorder plus the engine's active/spare epoch recorder pair —
// independent of the worker count.
func (p *Parallel) MemoryBytes() int {
	return p.det.Recorder().MemoryBytes() + p.eng.MemoryBytes()
}

// EndInterval closes the measurement interval: it flushes the default
// producer, cuts the epoch across all shards (the rotation token is the
// linearization point — every event ingested before EndInterval lands
// in this interval), merges the per-worker sketches and runs detection
// over the merged state. Producers created with NewProducer must be
// flushed by their owners first, or their partial batches carry into
// the next interval.
func (p *Parallel) EndInterval() (Result, error) {
	p.main.Flush()
	merged, err := p.eng.Rotate()
	if err != nil {
		return Result{}, err
	}
	res, err := p.det.EndIntervalWith(merged)
	if err != nil {
		return Result{}, err
	}
	// The detection-side recorder never observes traffic in parallel
	// mode; copy the merged active-service memory into it (Reset+Union,
	// so the insertion count carries over too) so SaveState checkpoints
	// match the sequential detector's byte for byte.
	p.det.Recorder().Services.Reset()
	if err := p.det.Recorder().Services.Union(merged.Services); err != nil {
		return Result{}, fmt.Errorf("hifind: parallel services: %w", err)
	}
	if err := p.eng.Recycle(); err != nil {
		return Result{}, err
	}
	p.ins.recordInterval(res)
	out := convertResult(res)
	emitResult(p.sink, out)
	return out, nil
}

// SaveState serializes the cross-interval state exactly like
// Detector.SaveState — the snapshots are interchangeable between
// sequential and parallel instances built with the same options. Call
// at interval boundaries, right after EndInterval.
func (p *Parallel) SaveState() ([]byte, error) {
	return p.det.MarshalState()
}

// LoadState restores a snapshot saved by SaveState (from a sequential
// or a parallel instance). It must be called before ingestion starts:
// the restored active-service memory is seeded into every shard.
func (p *Parallel) LoadState(state []byte) error {
	if err := p.det.RestoreState(state); err != nil {
		return err
	}
	return p.eng.SeedServices(p.det.Recorder().Services)
}

// Close shuts the engine down: producers blocked on backpressure are
// released, workers drain their queues and exit, and one final
// detection runs over whatever the unfinished interval had recorded so
// no accepted event is silently lost. The instance is unusable
// afterwards; closing twice returns an error.
func (p *Parallel) Close() (Result, error) {
	p.main.Flush()
	leftover, err := p.eng.Close()
	if err != nil {
		return Result{}, err
	}
	res, err := p.det.EndIntervalWith(leftover)
	if err != nil {
		return Result{}, err
	}
	p.det.Recorder().Services.Reset()
	if err := p.det.Recorder().Services.Union(leftover.Services); err != nil {
		return Result{}, fmt.Errorf("hifind: parallel services: %w", err)
	}
	p.ins.recordInterval(res)
	out := convertResult(res)
	emitResult(p.sink, out)
	return out, nil
}

// Producer is an ingestion handle for one feeding goroutine of a
// Parallel detector. Handles batch privately, so any number may ingest
// concurrently; each individual handle must be used from a single
// goroutine at a time. Flush before EndInterval (or after the last
// event) to push out the partial batch.
type Producer struct {
	par  *Parallel
	prod *pipeline.Producer
}

// NewProducer returns a new concurrent-ingestion handle.
func (p *Parallel) NewProducer() *Producer {
	return &Producer{par: p, prod: p.eng.NewProducer()}
}

// Observe records one packet.
//
//hifind:hot
func (pr *Producer) Observe(pkt Packet) {
	ip, ok := pkt.toInternal()
	if !ok {
		pr.par.dropped.Add(1)
		pr.par.ins.dropped.Inc()
		return
	}
	pr.prod.Ingest(pipeline.Event{Pkt: ip})
	pr.par.ins.packets.Inc()
}

// ObserveFlow records one flow summary.
//
//hifind:hot
func (pr *Producer) ObserveFlow(f Flow) {
	fr, ok := f.toInternal()
	if !ok {
		pr.par.dropped.Add(1)
		pr.par.ins.dropped.Inc()
		return
	}
	pr.prod.Ingest(pipeline.Event{Flow: fr, IsFlow: true})
	pr.par.ins.flows.Inc()
}

// Flush ships the handle's partial batch to the workers.
func (pr *Producer) Flush() { pr.prod.Flush() }
