package hifind_test

// Facade-level differential suite for the flow-aggregation cache: every
// golden scenario is replayed through the cache-less detector (the
// witness) and cache-enabled variants — a large cache, a deliberately
// tiny one that evicts constantly, and a sharded detector with one
// cache per worker — and the complete per-interval alert output must
// agree exactly. Together with the byte-identity tests in internal/core
// this proves the cache changes only speed, never detection behavior,
// on the same traces the golden regression suite pins. The suite also
// covers the aggregated deployment (cached remote Recorders merged into
// a cached central Detector), checkpoint round-trips, and the loud
// failure on cache-configuration mismatch.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	hifind "github.com/hifind/hifind"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/pcap"
	"github.com/hifind/hifind/internal/trace"
)

func TestFlowCacheDifferentialGoldenTraces(t *testing.T) {
	for name, sc := range goldenScenarios() {
		t.Run(name, func(t *testing.T) {
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

			variants := []struct {
				name   string
				replay func(t *testing.T) string
			}{
				{"uncached-sequential", func(t *testing.T) string {
					return replayGolden(t, capture, edge, newCompact(t, sc.options()...))
				}},
				{"cached-sequential", func(t *testing.T) string {
					return replayGolden(t, capture, edge,
						newCompact(t, sc.options(hifind.WithFlowCache(4096))...))
				}},
				// A 64-entry cache in front of hundreds of concurrent flows
				// thrashes: almost every install evicts. The alert output
				// must not care.
				{"cached-tiny", func(t *testing.T) string {
					return replayGolden(t, capture, edge,
						newCompact(t, sc.options(hifind.WithFlowCache(64))...))
				}},
				{"cached-workers-3", func(t *testing.T) string {
					p := newCompact(t, sc.options(hifind.WithWorkers(3),
						hifind.WithBatchSize(64), hifind.WithFlowCache(4096))...)
					defer p.Close()
					return replayGolden(t, capture, edge, p)
				}},
			}
			want := variants[0].replay(t)
			if name != "benign-only" && want == "" {
				t.Fatal("witness variant produced no output; the equivalence would be vacuous")
			}
			for _, v := range variants[1:] {
				if got := v.replay(t); got != want {
					t.Errorf("%s diverged from uncached-sequential:\n%s", v.name, goldenDiff(want, got))
				}
			}
		})
	}
}

// TestFlowCacheAggregatedDeployment is the three-router combine at the
// facade level: traffic split across two cached remote Recorders and a
// cached central Detector, merged each interval, must alert exactly like
// the same deployment without caches. StateSnapshot flushes the remote
// caches, so the wire format is unchanged and the merge stays exact.
func TestFlowCacheAggregatedDeployment(t *testing.T) {
	intervals := equivTrace(t)

	type site struct {
		det  *hifind.Detector
		recs [2]*hifind.Recorder
	}
	build := func(opts ...hifind.Option) site {
		s := site{det: newCompact(t, opts...)}
		for i := range s.recs {
			r, err := hifind.NewRecorder(append([]hifind.Option{hifind.WithCompactSketches()}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			s.recs[i] = r
		}
		return s
	}
	cached := build(hifind.WithFlowCache(512))
	plain := build()

	run := func(s site, pkts []netmodel.Packet) hifind.Result {
		t.Helper()
		// Deterministic 3-way split: each site sees every third packet.
		for i, p := range pkts {
			switch i % 3 {
			case 0:
				s.det.Observe(toPublic(p))
			case 1:
				s.recs[0].Observe(toPublic(p))
			case 2:
				s.recs[1].Observe(toPublic(p))
			}
		}
		states := make([][]byte, 0, len(s.recs))
		for _, r := range s.recs {
			state, err := r.StateSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			states = append(states, state)
		}
		res, err := s.det.EndIntervalMerged(states...)
		if err != nil {
			t.Fatal(err)
		}
		return stripTimes(res)
	}

	sawFinal := false
	for i, pkts := range intervals {
		cres, pres := run(cached, pkts), run(plain, pkts)
		if !reflect.DeepEqual(cres, pres) {
			t.Errorf("interval %d: cached aggregated deployment diverged from cache-less", i)
		}
		sawFinal = sawFinal || len(cres.Final) > 0
	}
	if !sawFinal {
		t.Fatal("aggregated deployment never alerted; the equivalence would be vacuous")
	}
}

// TestFlowCacheCheckpointRoundTrip proves checkpointing under a live
// cache: save at an interval boundary, restore into a fresh cached
// detector, and the continuation must match a never-checkpointed cached
// run bit-for-bit — identical results and identical subsequent
// checkpoints. SaveState carries only cross-interval state, and
// EndInterval has already drained the cache, so nothing is lost.
func TestFlowCacheCheckpointRoundTrip(t *testing.T) {
	intervals := equivTrace(t)
	const handoff = 2
	cacheOpt := hifind.WithFlowCache(256)

	straight := newCompact(t, cacheOpt)
	restarted := newCompact(t, cacheOpt)
	for _, pkts := range intervals[:handoff] {
		for _, p := range pkts {
			straight.Observe(toPublic(p))
			restarted.Observe(toPublic(p))
		}
		if _, err := straight.EndInterval(); err != nil {
			t.Fatal(err)
		}
		if _, err := restarted.EndInterval(); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint, err := restarted.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	restored := newCompact(t, cacheOpt)
	if err := restored.LoadState(checkpoint); err != nil {
		t.Fatal(err)
	}
	for i, pkts := range intervals[handoff:] {
		for _, p := range pkts {
			straight.Observe(toPublic(p))
			restored.Observe(toPublic(p))
		}
		sres, err := straight.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		rres, err := restored.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripTimes(sres), stripTimes(rres)) {
			t.Errorf("interval %d after restore: results diverge", handoff+i)
		}
		sstate, err := straight.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		rstate, err := restored.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sstate, rstate) {
			t.Errorf("interval %d after restore: checkpoints not bit-identical", handoff+i)
		}
	}
}

// TestFlowCacheWireFormatInterop: StateSnapshot flushes the cache
// before serializing, so the wire format carries no trace of the cache
// and snapshots interchange freely across cached and cache-less
// participants — a cache-less remote merged into a cached central site
// must alert exactly like an all-cache-less deployment. (Mixing live
// Recorder objects with differing cache configurations, by contrast,
// fails loudly at Merge — pinned in internal/core.)
func TestFlowCacheWireFormatInterop(t *testing.T) {
	intervals := equivTrace(t)
	run := func(central *hifind.Detector, remote *hifind.Recorder) []hifind.Result {
		t.Helper()
		results := make([]hifind.Result, 0, len(intervals))
		for _, pkts := range intervals {
			for i, p := range pkts {
				if i%2 == 0 {
					central.Observe(toPublic(p))
				} else {
					remote.Observe(toPublic(p))
				}
			}
			state, err := remote.StateSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			res, err := central.EndIntervalMerged(state)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, stripTimes(res))
		}
		return results
	}
	plainRemote, err := hifind.NewRecorder(hifind.WithCompactSketches())
	if err != nil {
		t.Fatal(err)
	}
	mixed := run(newCompact(t, hifind.WithFlowCache(512)), plainRemote)
	plainRemote2, err := hifind.NewRecorder(hifind.WithCompactSketches())
	if err != nil {
		t.Fatal(err)
	}
	plain := run(newCompact(t), plainRemote2)
	if !reflect.DeepEqual(mixed, plain) {
		t.Error("cached central + cache-less remote diverged from all-cache-less deployment")
	}
}
