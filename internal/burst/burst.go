// Package burst implements an ALBUS-style sub-interval burst monitor:
// one invertible sketch per sub-interval slot, all sharing a seed (and
// therefore hashing), so a pulse flood shorter than the EWMA interval
// concentrates in a single slot instead of averaging away. Detection
// decodes each slot for keys whose per-slot mass clears a burst
// threshold, then applies the long-duration-flow filter: a key whose
// mass summed across every slot already clears the sustained-flood
// threshold is the EWMA detector's job and is suppressed here, leaving
// exactly the pulses the interval detector cannot see.
//
// All per-slot state is linear (it is plain invsketch counters), so
// COMBINE across routers and the weighted NetFlow path stay exact.
package burst

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"github.com/hifind/hifind/internal/invsketch"
	"github.com/hifind/hifind/internal/sketch"
)

// MaxSlots bounds the slot count so slot indices pack into the shard
// segment space and the marshal header stays fixed-width.
const MaxSlots = 16

// Config describes a burst monitor's geometry.
type Config struct {
	Slots  int           // sub-intervals per EWMA interval
	Window time.Duration // wall-clock width of one slot
	Params invsketch.Params
}

// Validate reports whether the configuration is buildable.
func (c Config) Validate() error {
	if c.Slots < 1 || c.Slots > MaxSlots {
		return fmt.Errorf("burst: slots %d out of range [1,%d]", c.Slots, MaxSlots)
	}
	if c.Window <= 0 {
		return fmt.Errorf("burst: window %v must be positive", c.Window)
	}
	return c.Params.Validate()
}

// Array is one burst monitor: Slots invertible sketches sharing a seed.
// Like every other HiFIND structure it is not safe for concurrent use.
type Array struct {
	cfg   Config
	seed  uint64
	slots []*invsketch.Sketch
}

// New builds an empty burst monitor. Every slot is constructed from the
// same seed, so one bucket plan serves all slots and COMBINE across
// routers with equal configuration is exact.
//
//hifind:cold
func New(cfg Config, seed uint64) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Array{cfg: cfg, seed: seed, slots: make([]*invsketch.Sketch, cfg.Slots)}
	for i := range a.slots {
		s, err := invsketch.New(cfg.Params, seed)
		if err != nil {
			return nil, err
		}
		a.slots[i] = s
	}
	return a, nil
}

// Config returns the monitor geometry.
func (a *Array) Config() Config { return a.cfg }

// Seed returns the shared hash seed.
func (a *Array) Seed() uint64 { return a.seed }

// SlotSketch exposes one slot's underlying sketch, for the shard
// planner that addresses slot counters directly.
func (a *Array) SlotSketch(i int) *invsketch.Sketch { return a.slots[i] }

// Slot maps a timestamp to its slot index. Slots cycle modulo the
// interval, so the array self-overwrites interval to interval once
// Reset runs at rotation.
func (a *Array) Slot(ts time.Time) int { return a.cfg.Slot(ts) }

// Slot maps a timestamp to its slot index under this geometry; see
// Array.Slot.
func (c Config) Slot(ts time.Time) int {
	n := ts.UnixNano() / int64(c.Window)
	s := int(n % int64(c.Slots))
	if s < 0 {
		s += c.Slots
	}
	return s
}

// NewPlan returns a reusable bucket plan valid for every slot (all
// slots hash identically by construction).
func (a *Array) NewPlan() *invsketch.Plan { return a.slots[0].NewPlan() }

// FillPlan computes the shared bucket plan for a key from its
// precomputed polynomial powers.
func (a *Array) FillPlan(key uint64, kp sketch.KeyPowers, p *invsketch.Plan) {
	a.slots[0].FillPlan(key, kp, p)
}

// UpdateAt folds a weighted update into one slot through a plan.
func (a *Array) UpdateAt(slot int, p *invsketch.Plan, v int32) {
	a.slots[slot].UpdateAt(p, v)
}

// Update adds v to the key in one slot, hashing from scratch (tests and
// the fuzz harness; the hot path plans).
func (a *Array) Update(slot int, key uint64, v int32) {
	a.slots[slot].Update(key, v)
}

// AccessesPerUpdate returns the counter words one update touches, for
// the recorder's memory-access accounting.
func (a *Array) AccessesPerUpdate() int {
	return a.cfg.Params.Stages * a.cfg.Params.Fields()
}

// Reset zeroes every slot for the next interval.
func (a *Array) Reset() {
	for _, s := range a.slots {
		s.Reset()
	}
}

// Compatible reports whether two monitors can be combined.
func (a *Array) Compatible(o *Array) bool {
	return a.cfg == o.cfg && a.seed == o.seed
}

// Combine computes Σ cᵢ·Aᵢ slot-wise over compatible monitors.
func Combine(coeffs []int32, arrays []*Array) (*Array, error) {
	if len(arrays) == 0 {
		return nil, fmt.Errorf("burst: combine of zero monitors")
	}
	if len(coeffs) != len(arrays) {
		return nil, fmt.Errorf("burst: %d coefficients for %d monitors", len(coeffs), len(arrays))
	}
	for n, in := range arrays {
		if !arrays[0].Compatible(in) {
			return nil, fmt.Errorf("burst: operand %d incompatible", n)
		}
	}
	out, err := New(arrays[0].cfg, arrays[0].seed)
	if err != nil {
		return nil, err
	}
	for i := range out.slots {
		operands := make([]*invsketch.Sketch, len(arrays))
		for n, in := range arrays {
			operands[n] = in.slots[i]
		}
		merged, err := invsketch.Combine(coeffs, operands)
		if err != nil {
			return nil, err
		}
		out.slots[i] = merged
	}
	return out, nil
}

// MemoryBytes returns the counter footprint across all slots.
func (a *Array) MemoryBytes() int {
	total := 0
	for _, s := range a.slots {
		total += s.MemoryBytes()
	}
	return total
}

const arrayMagic = uint32(0x48694241) // "HiBA"

// MarshalBinary serializes the monitor: header plus one length-prefixed
// invsketch block per slot, deterministic byte-for-byte.
func (a *Array) MarshalBinary() ([]byte, error) {
	buf := binary.LittleEndian.AppendUint32(nil, arrayMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(a.cfg.Slots))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(a.cfg.Window))
	for _, s := range a.slots {
		blk, err := s.MarshalBinary()
		if err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blk)))
		buf = append(buf, blk...)
	}
	return buf, nil
}

// UnmarshalBinary reverses MarshalBinary.
func (a *Array) UnmarshalBinary(data []byte) error {
	if len(data) < 16 {
		return fmt.Errorf("burst: truncated header (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint32(data) != arrayMagic {
		return fmt.Errorf("burst: bad magic %#x", binary.LittleEndian.Uint32(data))
	}
	slots := int(binary.LittleEndian.Uint32(data[4:]))
	window := time.Duration(binary.LittleEndian.Uint64(data[8:]))
	if slots < 1 || slots > MaxSlots {
		return fmt.Errorf("burst: unmarshal slots %d out of range [1,%d]", slots, MaxSlots)
	}
	off := 16
	decoded := make([]*invsketch.Sketch, slots)
	for i := range decoded {
		if len(data) < off+4 {
			return fmt.Errorf("burst: truncated slot %d length", i)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if len(data) < off+n {
			return fmt.Errorf("burst: truncated slot %d body", i)
		}
		s := new(invsketch.Sketch)
		if err := s.UnmarshalBinary(data[off : off+n]); err != nil {
			return fmt.Errorf("burst: slot %d: %w", i, err)
		}
		off += n
		decoded[i] = s
	}
	if off != len(data) {
		return fmt.Errorf("burst: %d trailing bytes", len(data)-off)
	}
	*a = Array{
		cfg:   Config{Slots: slots, Window: window, Params: decoded[0].Params()},
		seed:  decoded[0].Seed(),
		slots: decoded,
	}
	return nil
}

// Finding is one burst offender: a key whose peak single-slot mass
// clears the burst threshold while its across-slot total stays below
// the sustained-flood threshold.
type Finding struct {
	Key   uint64
	Peak  float64 // mass in the heaviest slot
	Slot  int     // which slot carried the peak
	Total float64 // mass summed across all slots
}

// Detect decodes every slot for keys at or above slotThreshold, drops
// keys whose across-slot total reaches suppressTotal (long-duration
// flows belong to the interval detector), and returns the survivors
// sorted by peak descending, key ascending — a deterministic order for
// the golden harness. maxKeys ≤ 0 means unlimited.
func (a *Array) Detect(slotThreshold, suppressTotal float64, maxKeys int) ([]Finding, error) {
	seen := make(map[uint64]bool)
	var keys []uint64
	for i, s := range a.slots {
		decoded, err := s.DecodeCounts(slotThreshold, invsketch.DecodeOptions{})
		if err != nil {
			return nil, fmt.Errorf("burst: slot %d decode: %w", i, err)
		}
		for _, ke := range decoded {
			if !seen[ke.Key] {
				seen[ke.Key] = true
				keys = append(keys, ke.Key)
			}
		}
	}
	var out []Finding
	for _, key := range keys {
		f := Finding{Key: key}
		for i, s := range a.slots {
			est := s.Estimate(key)
			f.Total += est
			if i == 0 || est > f.Peak {
				f.Peak = est
				f.Slot = i
			}
		}
		if f.Peak < slotThreshold || f.Total >= suppressTotal {
			continue
		}
		out = append(out, f)
	}
	sort.Slice(out, func(x, y int) bool {
		if out[x].Peak > out[y].Peak {
			return true
		}
		if out[x].Peak < out[y].Peak {
			return false
		}
		return out[x].Key < out[y].Key
	})
	if maxKeys > 0 && len(out) > maxKeys {
		out = out[:maxKeys]
	}
	return out, nil
}
