package hifind_test

// The sharded-ingestion identity matrix: every golden trace is replayed
// through the sequential Detector and through the key-sharded engine at
// 1, 2, 4 and 8 workers, under both inference engines (reverse and
// invertible sketches) and with the flow-aggregation cache off and on —
// and for every cell of the matrix both the rendered per-interval alert
// output AND the serialized cross-interval state must be byte-identical
// to the sequential baseline of the same inference mode. This is the
// facade-level statement of the sharding invariant: partitioning bucket
// columns across workers is invisible in detection behavior and in the
// wire format, for any worker count, on adversarial and benign traffic
// alike.

import (
	"bytes"
	"fmt"
	"testing"

	hifind "github.com/hifind/hifind"
	"github.com/hifind/hifind/internal/pcap"
	"github.com/hifind/hifind/internal/trace"
)

func TestShardedIdentityMatrix(t *testing.T) {
	workerCounts := []int{1, 2, 3, 4, 8}
	cacheSizes := []int{0, 1024}
	if testing.Short() || raceEnabled {
		// One concurrent worker count is enough for -short iteration and
		// for the race detector (any count ≥2 exercises the concurrent
		// paths); the full sweep runs in the regular test step.
		workerCounts = []int{3}
	}
	modes := map[string][]hifind.Option{
		"reverse":    nil,
		"invertible": {hifind.WithInvertibleInference()},
	}
	for name, sc := range goldenScenarios() {
		cfg := sc.cfg
		g, err := trace.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		w := pcap.NewWriter(&buf)
		if err := g.Stream(w.WritePacket); err != nil {
			t.Fatal(err)
		}
		capture := buf.Bytes()
		edge := []string{fmt.Sprintf("%s/16", cfg.InternalPrefix)}

		for mode, modeOpts := range modes {
			t.Run(name+"/"+mode, func(t *testing.T) {
				seq := newCompact(t, sc.options(modeOpts...)...)
				wantAlerts := replayGolden(t, capture, edge, seq)
				wantState, err := seq.SaveState()
				if err != nil {
					t.Fatal(err)
				}
				if name != "benign-only" && wantAlerts == "" {
					t.Fatal("sequential baseline produced no output; the matrix would be vacuous")
				}

				check := func(variant string, d interface {
					hifind.Replayable
					SaveState() ([]byte, error)
				}) {
					t.Helper()
					if got := replayGolden(t, capture, edge, d); got != wantAlerts {
						t.Errorf("%s: alerts diverged from sequential:\n%s",
							variant, goldenDiff(wantAlerts, got))
					}
					state, err := d.SaveState()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(state, wantState) {
						t.Errorf("%s: serialized state not byte-identical to sequential", variant)
					}
				}

				// Sequential with the flow cache: same wire bytes, alerts.
				check("sequential/cached",
					newCompact(t, sc.options(append([]hifind.Option{hifind.WithFlowCache(1024)}, modeOpts...)...)...))

				for _, workers := range workerCounts {
					for _, cache := range cacheSizes {
						opts := sc.options(append([]hifind.Option{
							hifind.WithWorkers(workers), hifind.WithBatchSize(64),
						}, modeOpts...)...)
						variant := fmt.Sprintf("workers-%d/uncached", workers)
						if cache > 0 {
							opts = append(opts, hifind.WithFlowCache(cache))
							variant = fmt.Sprintf("workers-%d/cached", workers)
						}
						p := newCompact(t, opts...)
						check(variant, p)
						if _, err := p.Close(); err != nil {
							t.Fatal(err)
						}
					}
				}
			})
		}
	}
}
