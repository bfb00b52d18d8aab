package telemetry

import (
	"io"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentMetricOps hammers every metric type from many
// goroutines while an encoder reads — meaningful under -race, which CI
// runs for this package.
func TestConcurrentMetricOps(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_total", "")
	g := r.Gauge("race_gauge", "")
	hw := r.Gauge("race_high_water", "")
	h := r.Histogram("race_seconds", "", DefBuckets)

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Add(1)
				g.Set(float64(i))
				hw.SetMax(float64(w*iters + i))
				h.Observe(float64(i) / 1000)
			}
		}(w)
	}
	// Concurrent registration of the same and new series.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			r.Counter("race_total", "")
			r.Gauge("race_gauge", "")
		}
	}()
	// Concurrent exposition.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = r.WritePrometheus(io.Discard)
			_ = r.Snapshot()
		}
	}()
	wg.Wait()

	if c.Value() != workers*iters {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*iters)
	}
	if h.Count() != workers*iters {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
	// Set and SetMax write separate gauges: a late Set on a shared gauge
	// would legitimately lower the high-water mark.
	if want := float64(workers*iters - 1); hw.Value() != want {
		t.Fatalf("SetMax high-water = %v, want %v", hw.Value(), want)
	}
}

func TestConcurrentSink(t *testing.T) {
	var b strings.Builder
	var mu sync.Mutex
	s := NewJSONSink(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return b.Write(p)
	}))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Emit(Event{Kind: "alert"})
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if got := strings.Count(b.String(), "\n"); got != 800 {
		t.Fatalf("sink wrote %d lines, want 800", got)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
