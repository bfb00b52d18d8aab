// Package pipeline is HiFIND's key-sharded parallel ingestion engine.
// Every sketch's bucket space is partitioned across N workers: producers
// do each packet's hash work exactly once (a core.Planner filling the
// same fused plans a sequential recorder fills), route the resulting
// counter writes to the workers owning those cells, and the workers
// apply ops into ONE shared epoch recorder — each touching only its
// disjoint shard of every structure. Because ownership partitions cells
// and counter adds commute, the shared state is bit-identical to a
// single recorder fed the same packets sequentially, under any
// packet-to-producer assignment; TestMergeMatchesSequential and the
// facade's golden matrix prove it in test form.
//
// Dataflow:
//
//	Producer.Ingest ─▶ core.Planner (hash once, plan, aggregate)
//	        │ ops, routed by geom.Owner(loc)
//	        ▼
//	pend[owner] op batches ──ship──▶ worker[owner].ch ─▶ shared ShardView
//	                                      │
//	Engine.Rotate ──rotation token────────┘  (epoch barrier: workers
//	   switch to the spare recorder's view and hand back their scalar
//	   tallies; the retiring recorder is stitched in O(structures) —
//	   no sketch-sized COMBINE, no per-worker recorder replicas)
//
// Versus the replicated design this replaces, memory is two recorder
// sets TOTAL (active + spare flip-flop) instead of two per worker, and
// rotation folds scalars instead of merging N sketch sets, so both
// shrink from O(N) to O(1) as workers grow. Each event's accounting
// rides exactly one shipped batch as a core.Tally, giving the exact
// conservation invariant recorded + shed == ingested (in packets) for
// quiescent teardown, and byte-identical epochs whenever producers
// flush before rotation (the facade does).
//
// The per-event hot path is allocation-free: op batches come from a
// pre-allocated free list and are returned by the consuming worker. The
// hotpath-alloc lint rule covers Ingest and the routed EmitOps/apply
// path, and alloc_test.go pins the whole producer→worker path to zero
// allocations per event.
//
// Backpressure is explicit and event-granular: with the default Block
// policy a producer whose ship target is full waits (no loss — the
// replay/offline shape); with Shed a new event is dropped whole at
// admission when any worker queue is saturated (the live-capture shape,
// mirroring Detector.Dropped's count-don't-block philosophy). Dropping
// at admission — before any op is emitted — is what keeps shed traffic
// from tearing per-structure state.
package pipeline

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hifind/hifind/internal/bloom"
	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/telemetry"
)

// Policy says what a producer does when the pipeline is saturated.
type Policy int

// Backpressure policies.
const (
	// Block makes Ingest wait for queue space: nothing is lost, the
	// producer slows to the workers' pace. Right for offline replay.
	Block Policy = iota
	// Shed drops new events at admission while any worker queue is
	// full (and counts them — Engine.Shed): ingestion never stalls the
	// capture loop. Right for live traffic, where the kernel would
	// drop the packets anyway if the reader fell behind.
	Shed
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Shed:
		return "shed"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config sizes the engine. Zero fields take the documented defaults.
type Config struct {
	// Recorder is the sketch geometry the shared epoch recorders use;
	// it must equal the detection-side configuration or the rotated
	// state is not comparable (core.Recorder.Compatible enforces this).
	Recorder core.RecorderConfig
	// Workers is the shard count (default runtime.GOMAXPROCS(0)): how
	// many ways every sketch's bucket space is partitioned.
	Workers int
	// BatchSize is the number of routed counter ops a producer
	// accumulates per owner before shipping (default 256). Larger
	// batches amortize channel synchronization; smaller ones reduce
	// rotation skew. One packet emits roughly 20–40 ops.
	BatchSize int
	// QueueDepth is the number of op batches buffered per worker
	// (default 4).
	QueueDepth int
	// Policy picks the backpressure behavior (default Block).
	Policy Policy
	// Telemetry, when non-nil, registers the engine's pipeline_* metric
	// series (shed events, shipped batches, per-worker queue high-water
	// marks, epoch-barrier latency). Nil costs the hot path nothing: the
	// metric handles stay nil and their methods are nil-safe no-ops.
	Telemetry *telemetry.Registry
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BatchSize == 0 {
		c.BatchSize = 256
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4
	}
	return c
}

// Event is one recordable traffic observation: a packet, or a NetFlow-
// style flow summary when IsFlow is set. The two kinds may be mixed
// freely within one engine, exactly as core.Recorder accepts both.
type Event struct {
	Pkt    netmodel.Packet
	Flow   netmodel.FlowRecord
	IsFlow bool
}

// opBatch is a fixed-capacity buffer of routed counter writes bound for
// one worker, plus the scalar tally riding along. Buffers cycle
// producer → worker queue → worker → free list; none are allocated on
// the hot path.
type opBatch struct {
	ops   []core.Op
	inv   []core.InvOp // non-nil only in invertible-inference mode
	n, ni int
	tally core.Tally
}

// msg is one worker-queue element: an op batch, or an epoch-rotation
// token (FIFO ordering with batches is what makes the token a barrier:
// everything enqueued before it lands in the closing epoch).
type msg struct {
	b   *opBatch
	rot *rotation
}

// rotation asks a worker to switch onto the fresh epoch recorder's view
// and hand back its accumulated scalar tally for the closing epoch. out
// is buffered so the worker never blocks replying.
type rotation struct {
	view *core.ShardView
	out  chan<- core.Tally
}

// Engine is the sharded ingestion engine. Construct with New, feed it
// through Producers, cut epochs with Rotate/Recycle, stop it with Close.
//
// Concurrency contract: any number of Producers may ingest
// concurrently; Rotate, Recycle and Close serialize among themselves
// (an internal mutex enforces this) and may run concurrently with
// producers. SeedServices must run before ingestion starts.
type Engine struct {
	cfg  Config
	geom core.ShardGeometry
	nw   uint64 // worker count, for the Owner multiply

	workers []*worker
	// recs is the epoch flip-flop: recs[active] is being written through
	// views[active]; the other is the reset spare Rotate switches to.
	// recs[0] doubles as every planner's hash reference — plan filling
	// reads only hash tables, which are immutable after construction,
	// so the role is safe across rotations and resets.
	recs  [2]*core.Recorder
	views [2]*core.ShardView

	free chan *opBatch // pre-allocated op-batch free list
	done chan struct{} // closed on Close: unblocks Block-policy senders
	once sync.Once
	wg   sync.WaitGroup
	shed atomic.Int64
	// closing gates event admission without a lock: set before worker
	// queues close, so no event planned after it can ship.
	closing atomic.Bool

	// Telemetry handles; all nil when Config.Telemetry was nil.
	shedEvents *telemetry.Counter
	batches    *telemetry.Counter
	barrier    *telemetry.Histogram

	ctl     sync.Mutex // guards every field below
	closed  bool
	active  int  // index of the recorder being written
	rotated bool // a rotated epoch awaits Recycle
	// sendMu closes the race between producer sends and teardown: ships
	// commit under RLock, Close flips closed under Lock, and worker
	// queues close only after that — so no ship can hit a closed
	// channel. Block-policy senders select on done, so they cannot hold
	// RLock forever and deadlock the Lock.
	sendMu sync.RWMutex
	// services accumulates the active-service filter across epochs. The
	// Bloom filter is cross-interval state (core.Recorder.Reset keeps
	// it), but an epoch recorder entering service is fresh, so its
	// filter alone holds only the current epoch. Unioning this
	// accumulator into every rotated recorder restores the full
	// history — bit-identical to a sequential recorder's filter, since
	// Bloom bits are a monotone OR over the same per-key patterns.
	services *bloom.Filter
}

// New builds the engine and starts its workers. Total sketch memory is
// two recorder sets — one active, one spare — regardless of worker
// count: workers shard the same recorder rather than replicating it.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("pipeline: workers %d < 1", cfg.Workers)
	}
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("pipeline: batch size %d < 1", cfg.BatchSize)
	}
	if cfg.QueueDepth < 1 {
		return nil, fmt.Errorf("pipeline: queue depth %d < 1", cfg.QueueDepth)
	}
	if cfg.Policy != Block && cfg.Policy != Shed {
		return nil, fmt.Errorf("pipeline: unknown policy %d", int(cfg.Policy))
	}
	e := &Engine{
		cfg:  cfg,
		nw:   uint64(cfg.Workers),
		done: make(chan struct{}),
	}
	if reg := cfg.Telemetry; reg != nil {
		e.shedEvents = reg.Counter("pipeline_shed_events_total",
			"events dropped by the Shed backpressure policy or by shutdown races")
		e.batches = reg.Counter("pipeline_batches_total",
			"op batches shipped to worker queues")
		e.barrier = reg.Histogram("pipeline_epoch_barrier_seconds",
			"latency of the rotation epoch barrier (token injection to last tally handed back)",
			telemetry.DefBuckets)
	}
	for i := range e.recs {
		rec, err := core.NewRecorder(cfg.Recorder)
		if err != nil {
			return nil, fmt.Errorf("pipeline: epoch recorder %d: %w", i, err)
		}
		e.recs[i] = rec
		e.views[i] = core.NewShardView(rec)
	}
	geom, err := core.NewShardGeometry(e.recs[0])
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	e.geom = geom
	// The cross-epoch service accumulator must share the recorder's
	// Bloom geometry; borrow it from a throwaway recorder (the rest of
	// which is garbage-collected).
	histRec, err := core.NewRecorder(cfg.Recorder)
	if err != nil {
		return nil, fmt.Errorf("pipeline: services accumulator: %w", err)
	}
	e.services = histRec.Services
	// Free-list sizing: every batch is either queued (Workers×QueueDepth),
	// in a worker's hands (Workers), split across a producer's per-owner
	// pending set (Workers each), or free. The slack covers a small
	// fleet of producers; beyond it, getBatch falls back to allocating
	// (cold path only, excess buffers are dropped).
	const producerSlack = 16
	invertible := cfg.Recorder.NeedsInvOps()
	total := cfg.Workers * (cfg.QueueDepth + 1 + producerSlack)
	e.free = make(chan *opBatch, total)
	for i := 0; i < total; i++ {
		e.free <- newOpBatch(cfg.BatchSize, invertible)
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			eng:  e,
			ch:   make(chan msg, cfg.QueueDepth),
			view: e.views[0],
		}
		if reg := cfg.Telemetry; reg != nil {
			w.hwm = reg.Gauge("pipeline_queue_depth_high_water",
				"deepest worker queue backlog observed, in batches",
				telemetry.Label{Name: "worker", Value: strconv.Itoa(i)})
		}
		e.workers = append(e.workers, w)
	}
	for _, w := range e.workers {
		e.wg.Add(1)
		go w.run()
	}
	return e, nil
}

// newOpBatch sizes one pooled buffer. Invertible mode carries a second
// lane for bucket-granular InvOps (an update emits about a third as
// many of them as counter ops). Reached from the hot path only through
// getBatch's designed oversubscription fallback, hence the
// suppressions: pool refills are amortized to zero by putBatch
// recycling, never per-packet.
func newOpBatch(batchSize int, invertible bool) *opBatch {
	//lint:ignore hotpath-alloc pool refill on producer oversubscription, amortized to zero by putBatch recycling
	b := &opBatch{ops: make([]core.Op, batchSize)}
	if invertible {
		n := batchSize / 2
		if n < 1 {
			n = 1
		}
		//lint:ignore hotpath-alloc pool refill on producer oversubscription, amortized to zero by putBatch recycling
		b.inv = make([]core.InvOp, n)
	}
	return b
}

// Config returns the engine configuration with defaults applied.
func (e *Engine) Config() Config { return e.cfg }

// Workers returns the shard count.
func (e *Engine) Workers() int { return len(e.workers) }

// Shed returns how many events were dropped by the Shed backpressure
// policy or by ingestion racing shutdown (in packets for shipped-then-
// shed batches, which coincides with events for packet traffic).
func (e *Engine) Shed() int64 { return e.shed.Load() }

// MemoryBytes returns the total sketch memory of the epoch recorders —
// the active/spare flip-flop pair. Constant for the engine's lifetime
// and, unlike the replicated design this engine supersedes, independent
// of the worker count.
func (e *Engine) MemoryBytes() int {
	return 2 * e.recs[0].MemoryBytes()
}

// SeedServices unions an active-service filter into the engine's
// cross-epoch accumulator — the restore-from-checkpoint path (a sharded
// hifind.Detector.LoadState). The seeded services appear in every
// subsequent epoch's rotated recorder.
func (e *Engine) SeedServices(f *bloom.Filter) error {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	if e.closed {
		return fmt.Errorf("pipeline: engine closed")
	}
	if err := e.services.Union(f); err != nil {
		return fmt.Errorf("pipeline: seed services: %w", err)
	}
	return nil
}

// Rotate closes the current epoch: it injects a rotation token into
// every worker queue (the epoch barrier — all batches enqueued before
// the token are applied first), switches the workers onto the spare
// recorder's shard view, folds the workers' scalar tallies into the
// retiring recorder (the O(structures) stitch — no sketch merge), and
// returns it. The recorder holds exactly the epoch's traffic, bit-
// identical to sequential recording, plus the full active-service
// history (see Recycle). It remains valid until Recycle is called;
// every Rotate must be paired with one Recycle.
//
// Events sitting in un-flushed producer batches are not part of the
// epoch — callers wanting exact interval boundaries flush their
// producers first (a sharded hifind.Detector.EndInterval does).
func (e *Engine) Rotate() (*core.Recorder, error) {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	if e.closed {
		return nil, fmt.Errorf("pipeline: engine closed")
	}
	if e.rotated {
		return nil, fmt.Errorf("pipeline: previous epoch not recycled")
	}
	freshView := e.views[1-e.active]
	out := make(chan core.Tally, len(e.workers))
	barrierStart := time.Now()
	// Plain blocking sends are safe: worker queues close only in Close,
	// which cannot proceed past ctl while we hold it, so workers stay
	// alive and drain their queues.
	for _, w := range e.workers {
		w.ch <- msg{rot: &rotation{view: freshView, out: out}}
	}
	var total core.Tally
	for range e.workers {
		t := <-out
		total.Add(&t)
	}
	e.barrier.Observe(time.Since(barrierStart).Seconds())
	retiring := e.recs[e.active]
	retiring.ApplyTally(&total)
	// Fold in the service history of all earlier epochs, so that the
	// rotated recorder's filter equals a sequential recorder's exactly —
	// bits and insertion count both: epoch filters are zeroed at
	// recycle, so the epoch's own adds are this epoch's and the
	// accumulator is everything before. Then refresh the accumulator to
	// the new total (Reset+Union is a copy).
	if err := retiring.Services.Union(e.services); err != nil {
		return nil, fmt.Errorf("pipeline: epoch services: %w", err)
	}
	e.services.Reset()
	if err := e.services.Union(retiring.Services); err != nil {
		return nil, fmt.Errorf("pipeline: epoch services: %w", err)
	}
	e.active = 1 - e.active
	e.rotated = true
	return retiring, nil
}

// Recycle resets the recorder of the last rotated epoch, making it the
// spare for the next Rotate. Call it once the caller is done with the
// recorder Rotate returned (a sharded hifind.Detector calls it right
// after detection); the recorder is invalid afterwards.
func (e *Engine) Recycle() error {
	e.ctl.Lock()
	defer e.ctl.Unlock()
	if e.retiredRec() == nil {
		return fmt.Errorf("pipeline: no epoch to recycle")
	}
	rec := e.retiredRec()
	// Full reset including the service filter (which core's Reset
	// deliberately keeps): cross-epoch service history lives in the
	// engine's accumulator instead, so each epoch's filter must count
	// only its own adds for the rotated insertion count to match a
	// sequential recorder's.
	rec.Services.Reset()
	rec.Reset()
	e.rotated = false
	return nil
}

// retiredRec returns the recorder of the un-recycled rotated epoch, nil
// if none. Callers hold ctl.
func (e *Engine) retiredRec() *core.Recorder {
	if !e.rotated {
		return nil
	}
	return e.recs[1-e.active]
}

// Close stops the engine: it unblocks any blocked producers, closes the
// worker queues (after which no ship can commit), waits for workers to
// drain and exit, then stitches their leftover tallies into the active
// recorder and returns it so no applied batch is lost — callers may run
// a final detection over the leftover state or discard it. Ingest calls
// racing or following Close are counted as shed, never deadlocked or
// panicked. Closing twice returns an error.
func (e *Engine) Close() (*core.Recorder, error) {
	e.once.Do(func() { close(e.done) })
	e.ctl.Lock()
	defer e.ctl.Unlock()
	if e.closed {
		return nil, fmt.Errorf("pipeline: engine already closed")
	}
	e.closing.Store(true)
	e.sendMu.Lock()
	e.closed = true
	e.sendMu.Unlock()
	// All ships either committed (buffered) or observed closed; closing
	// the queues lets workers drain everything — rotation tokens
	// included — and exit, so no batch and no barrier is ever stranded.
	for _, w := range e.workers {
		close(w.ch)
	}
	e.wg.Wait()
	var total core.Tally
	for _, w := range e.workers {
		total.Add(&w.final)
	}
	last := e.recs[e.active]
	last.ApplyTally(&total)
	if err := last.Services.Union(e.services); err != nil {
		return nil, fmt.Errorf("pipeline: close services: %w", err)
	}
	return last, nil
}

// getBatch takes a buffer from the free list, falling back to
// allocation only when more producers exist than the list was sized
// for.
func (e *Engine) getBatch() *opBatch {
	select {
	case b := <-e.free:
		return b
	default:
		// Oversubscription fallback, once per excess producer per
		// rotation at worst — not a per-packet allocation; putBatch
		// sheds the extras back to the designed pool size.
		return newOpBatch(e.cfg.BatchSize, e.cfg.Recorder.NeedsInvOps())
	}
}

// putBatch returns a buffer to the free list, dropping the excess ones
// allocated under producer oversubscription.
func (e *Engine) putBatch(b *opBatch) {
	b.n, b.ni = 0, 0
	b.tally = core.Tally{}
	select {
	case e.free <- b:
	default:
	}
}

// ship sends a full batch to its owning worker. Ships block when the
// queue is full regardless of policy — workers never stall (applying
// ops cannot block), so the wait is bounded; Shed-policy loss happens
// at event admission instead, where dropping cannot tear state. A ship
// racing Close sheds the batch and counts its tally's packets.
func (e *Engine) ship(b *opBatch, w *worker) {
	e.sendMu.RLock()
	if e.closed {
		e.sendMu.RUnlock()
		e.shed.Add(b.tally.Packets)
		e.shedEvents.Add(b.tally.Packets)
		e.putBatch(b)
		return
	}
	select {
	case w.ch <- msg{b: b}:
		e.batches.Inc()
		w.hwm.SetMax(float64(len(w.ch)))
	case <-e.done:
		e.shed.Add(b.tally.Packets)
		e.shedEvents.Add(b.tally.Packets)
		e.putBatch(b)
	}
	e.sendMu.RUnlock()
}

// congested reports whether any worker queue is saturated — the Shed
// policy's admission signal. Checking every queue (not just one target)
// reflects the fan-out reality of sharded routing: one event's ops can
// touch every worker.
//
//hifind:hot
func (e *Engine) congested() bool {
	for _, w := range e.workers {
		if len(w.ch) == cap(w.ch) {
			return true
		}
	}
	return false
}

// Producer is one ingestion handle: a planner doing the hash work plus
// per-owner pending batches. Each handle must be used from a single
// goroutine at a time; create one Producer per feeding goroutine (they
// are cheap) for concurrent ingestion.
type Producer struct {
	eng  *Engine
	pl   *core.Planner
	pend []*opBatch // one pending batch per owning worker
}

// NewProducer returns a new ingestion handle.
func (e *Engine) NewProducer() *Producer {
	p := &Producer{
		eng:  e,
		pend: make([]*opBatch, len(e.workers)),
	}
	pl, err := core.NewPlanner(e.recs[0], p)
	if err != nil {
		// Unreachable: New validated the geometry and configuration
		// this planner is built from.
		panic(fmt.Sprintf("pipeline: producer planner: %v", err))
	}
	p.pl = pl
	return p
}

// Ingest records one event: admission check, then hash-and-route
// through the planner — the per-packet hot path, checked by
// hotpath-alloc and pinned to zero allocations. Shedding happens here,
// before any op is emitted, so dropped events never tear sketch state.
func (p *Producer) Ingest(ev Event) {
	e := p.eng
	if e.closing.Load() || (e.cfg.Policy == Shed && e.congested()) {
		e.shed.Add(1)
		e.shedEvents.Add(1)
		return
	}
	if ev.IsFlow {
		p.pl.ObserveFlow(ev.Flow)
	} else {
		p.pl.Observe(ev.Pkt)
	}
}

// EmitOps implements core.OpSink: it routes every op to its owning
// worker's pending batch, shipping batches as they fill. Called by the
// producer's planner, synchronously under Ingest/Flush.
//
//hifind:hot
func (p *Producer) EmitOps(ops []core.Op, inv []core.InvOp) {
	e := p.eng
	for _, op := range ops {
		o := e.geom.Owner(op.Loc, e.nw)
		b := p.pend[o]
		if b == nil {
			b = e.getBatch()
			p.pend[o] = b
		}
		b.ops[b.n] = op
		b.n++
		if b.n == len(b.ops) || (b.inv != nil && b.ni == len(b.inv)) {
			p.shipPending(o)
		}
	}
	for _, op := range inv {
		o := e.geom.Owner(op.Loc, e.nw)
		b := p.pend[o]
		if b == nil {
			b = e.getBatch()
			p.pend[o] = b
		}
		b.inv[b.ni] = op
		b.ni++
		if b.ni == len(b.inv) || b.n == len(b.ops) {
			p.shipPending(o)
		}
	}
}

// shipPending ships one owner's pending batch, attaching the planner's
// accumulated scalar tally so it rides exactly one batch.
//
//hifind:hot
func (p *Producer) shipPending(owner int) {
	b := p.pend[owner]
	p.pend[owner] = nil
	b.tally = p.pl.TakeTally()
	p.eng.ship(b, p.eng.workers[owner])
}

// Flush materializes the producer's flow-cache aggregates (if any) and
// ships every pending batch plus any leftover scalar tally. Call it
// before Rotate for exact epoch boundaries and before abandoning the
// handle.
func (p *Producer) Flush() {
	p.pl.FlushCache()
	for o, b := range p.pend {
		if b != nil && (b.n > 0 || b.ni > 0) {
			p.shipPending(o)
		}
	}
	// Scalar accounting with no op batch to ride (e.g. an interval of
	// only ignored packets) still has to reach the epoch recorder.
	if t := p.pl.TakeTally(); !t.IsZero() {
		b := p.eng.getBatch()
		b.tally = t
		p.eng.ship(b, p.eng.workers[0])
	}
}
