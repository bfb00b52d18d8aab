package hifind

import (
	"errors"
	"runtime"

	"github.com/hifind/hifind/internal/pipeline"
)

// Parallel is the name sharded detectors had before Detector took the
// worker count as an option.
//
// Deprecated: use Detector. The alias goes when the end-to-end
// benchmark (perfbench/), which still builds against it, next changes.
type Parallel = Detector

// NewParallel builds a detector sharded across runtime.GOMAXPROCS(0)
// workers unless opts say otherwise.
//
// Deprecated: use New with WithWorkers. It goes with the Parallel alias,
// when the end-to-end benchmark next changes.
func NewParallel(opts ...Option) (*Detector, error) {
	return New(append([]Option{WithWorkers(runtime.GOMAXPROCS(0))}, opts...)...)
}

// Producer is an ingestion handle for one feeding goroutine of a
// sharded detector. Handles batch privately, so any number may ingest
// concurrently; each individual handle must be used from a single
// goroutine at a time. Flush before EndInterval (or after the last
// event) to push out the partial batch.
type Producer struct {
	det  *Detector
	prod *pipeline.Producer
}

// NewProducer returns a new concurrent-ingestion handle. An inline
// detector has no shards to feed and returns an error.
func (d *Detector) NewProducer() (*Producer, error) {
	if d.eng == nil {
		return nil, errors.New("hifind: NewProducer needs a sharded detector (WithWorkers ≥ 1)")
	}
	return &Producer{det: d, prod: d.eng.NewProducer()}, nil
}

// Observe records one packet.
//
//hifind:hot
func (pr *Producer) Observe(pkt Packet) {
	ip, ok := pkt.toInternal()
	if !ok {
		pr.det.drop()
		return
	}
	pr.prod.Ingest(pipeline.Event{Pkt: ip})
	pr.det.ins.packets.Inc()
}

// ObserveFlow records one flow summary.
//
//hifind:hot
func (pr *Producer) ObserveFlow(f Flow) {
	fr, ok := f.toInternal()
	if !ok {
		pr.det.drop()
		return
	}
	pr.prod.Ingest(pipeline.Event{Flow: fr, IsFlow: true})
	pr.det.ins.flows.Inc()
}

// Flush ships the handle's partial batch to the workers.
func (pr *Producer) Flush() { pr.prod.Flush() }
