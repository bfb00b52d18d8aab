package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the traced run around
// the benchmark's own calls into each module. Spans nest
// run → interval → layer call; all spans of one replay pass share Pass.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0 for a pass's run span
	Pass   int                `json:"pass"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"` // since the tracer was made
	End    int64              `json:"end_ns"`
	Events int                `json:"events"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; write dumps them when the run ends, so
// recording costs a clock read and an append per span.
type tracer struct {
	epoch time.Time
	pass  int
	spans []span
	mem   runtime.MemStats // reused by recordSpan
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name string) int {
	t.spans = append(t.spans, span{
		ID:     len(t.spans) + 1,
		Parent: parent,
		Pass:   t.pass,
		Name:   name,
		Start:  int64(time.Since(t.epoch)),
	})
	return len(t.spans)
}

// finish closes span id with its event count.
func (t *tracer) finish(id, events int) {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.epoch))
	s.Events = events
}

// attr attaches a numeric attribute to span id.
func (t *tracer) attr(id int, key string, v float64) {
	s := &t.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = make(map[string]float64)
	}
	s.Attrs[key] = v
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover (overlapping children are counted once).
// Summed over every name, self times equal the total duration of the
// root spans.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.dur() - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := s.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, s.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// write stores the spans as JSON lines at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
