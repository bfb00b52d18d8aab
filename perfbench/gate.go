package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/netip"

	"github.com/hifind/hifind"
	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/evalx"
	"github.com/hifind/hifind/internal/netmodel"
	"github.com/hifind/hifind/internal/trace"
)

// The correctness gate. Every replay pass yields one core.IntervalResult
// per closed interval, holding only the Final alerts in the form the
// facade exposes them, so that facade passes (hifind.Result) and
// module-level passes (core.IntervalResult) digest identically. Each
// interval's digest is compared with the sequential uncached reference
// replay of the same bytes.

// facadeTypes maps the facade's alert types onto core's.
var facadeTypes = map[hifind.AlertType]core.AlertType{
	hifind.SYNFlood:       core.AlertSYNFlood,
	hifind.HorizontalScan: core.AlertHScan,
	hifind.VerticalScan:   core.AlertVScan,
	hifind.BlockScan:      core.AlertBlockScan,
	hifind.BurstFlood:     core.AlertBurstFlood,
	hifind.PersistentScan: core.AlertPersistScan,
	hifind.Reflection:     core.AlertReflection,
}

func ipv4(a netip.Addr) netmodel.IPv4 {
	if !a.Is4() {
		return 0
	}
	b := a.As4()
	return netmodel.IPv4(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
}

// normalize keeps only the addresses the facade reports for the alert's
// type: no attacker for spoofed floods, bursts and reflections, no
// victim for horizontal, block and persistent scans.
func normalize(a core.Alert) core.Alert {
	switch a.Type {
	case core.AlertSYNFlood:
		if a.Spoofed {
			a.SIP = 0
		}
	case core.AlertHScan, core.AlertBlockScan, core.AlertPersistScan:
		a.DIP = 0
	case core.AlertBurstFlood, core.AlertReflection:
		a.SIP = 0
	}
	return a
}

// fromFacade converts a facade result to the gate's form.
func fromFacade(r hifind.Result) core.IntervalResult {
	out := core.IntervalResult{Interval: r.Interval, Partial: r.Partial, Final: make([]core.Alert, len(r.Final))}
	for i, a := range r.Final {
		out.Final[i] = normalize(core.Alert{
			Type:           facadeTypes[a.Type],
			Interval:       a.Interval,
			SIP:            ipv4(a.Attacker),
			DIP:            ipv4(a.Victim),
			Port:           a.Port,
			Spoofed:        a.Spoofed,
			Estimate:       a.Magnitude,
			FanoutEstimate: a.Fanout,
			Slot:           a.Slot,
			Partial:        a.Partial,
		})
	}
	return out
}

// fromCore converts a module-level result to the gate's form.
func fromCore(r core.IntervalResult) core.IntervalResult {
	out := core.IntervalResult{Interval: r.Interval, Partial: r.Partial, Final: make([]core.Alert, len(r.Final))}
	for i, a := range r.Final {
		out.Final[i] = normalize(a)
	}
	return out
}

// intervalDigest hashes one interval's Final alerts, in order, with
// magnitudes bit-exact.
func intervalDigest(r core.IntervalResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "interval %d partial %v\n", r.Interval, r.Partial)
	for _, a := range r.Final {
		fmt.Fprintf(h, "%d %d %d %d %d %v %x %d %d %v\n", a.Type, a.Interval, a.SIP, a.DIP, a.Port,
			a.Spoofed, math.Float64bits(a.Estimate), a.FanoutEstimate, a.Slot, a.Partial)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func intervalDigests(rs []core.IntervalResult) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = intervalDigest(r)
	}
	return out
}

// runDigest folds per-interval digests into one, the value the shared-
// trace workloads must agree on.
func runDigest(digests []string) string {
	h := sha256.New()
	for _, d := range digests {
		fmt.Fprintln(h, d)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// failedIntervals counts the intervals of one pass that fail the gate
// against the reference digests: an interval that is missing (the pass
// errored first), extra, closed Partial, or whose Final alerts differ.
func failedIntervals(got []core.IntervalResult, ref []string) int {
	failed := 0
	for i := 0; i < max(len(got), len(ref)); i++ {
		if i >= len(got) || i >= len(ref) || got[i].Partial || intervalDigest(got[i]) != ref[i] {
			failed++
		}
	}
	return failed
}

// score is evalx's verdict on a pass's deduplicated Final alerts
// against the generator's ground truth.
type score struct {
	Recall         float64 `json:"recall"`
	Precision      float64 `json:"precision"`
	TruePositives  int     `json:"true_positives"`
	FalsePositives int     `json:"false_positives"`
	TrueAttacks    int     `json:"true_attacks"`
	Missed         int     `json:"missed"`
}

func scoreResults(rs []core.IntervalResult, attacks []trace.Attack) score {
	out := evalx.NewMatcher(attacks).Evaluate(evalx.Dedup(rs, evalx.PhaseFinal))
	s := score{TruePositives: out.TruePositives, FalsePositives: out.FalsePositives, Missed: len(out.MissedAttacks)}
	for _, a := range attacks {
		if a.Type.IsTrueAttack() {
			s.TrueAttacks++
		}
	}
	s.Recall = 1
	if s.TrueAttacks > 0 {
		s.Recall = float64(s.TrueAttacks-s.Missed) / float64(s.TrueAttacks)
	}
	s.Precision = 1
	if n := s.TruePositives + s.FalsePositives; n > 0 {
		s.Precision = float64(s.TruePositives) / float64(n)
	}
	return s
}
