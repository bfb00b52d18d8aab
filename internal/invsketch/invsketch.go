// Package invsketch implements a bucketized invertible sketch in the
// spirit of Tang, Huang & Lee ("A Fast and Compact Invertible Sketch
// for Network-Wide Heavy Flow Detection"): every bucket carries, next
// to its change counter, enough folded key material to reconstruct the
// key that dominates the bucket directly — turning offender-key
// recovery (the INFERENCE of the reversible sketch) into a single
// O(buckets) decode pass instead of a reverse-hashing search over the
// modular-hash candidate space.
//
// A bucket holds KeyBits+2 int32 counters:
//
//	field 0            count     Σ v            (the k-ary change counter)
//	field 1            fpsum     Σ v·fp(key)    (8-bit fingerprint verifier)
//	fields 2..KeyBits+1 bit i    Σ v·bit_i(key) (group-tested key material)
//
// Every field is a plain sum of per-update contributions, so the whole
// structure is linear: bucket-wise Σ cᵢ·Sᵢ (COMBINE) is exact, EWMA
// forecasting over snapshots commutes with it, and weighted NetFlow
// updates equal repeated unit updates — the same properties the rest of
// HiFIND already leans on. A pure XOR fold of the key would be smaller
// but breaks under weighted and negative updates (SYN/ACK subtraction)
// and under COMBINE coefficients; counter-folded bits survive all three.
//
// Decoding a bucket whose count stands out: bit i of the key is 1 iff
// the bit-i counter holds the majority of the bucket's count (a heavy
// changer drowns the noise of the light keys sharing the bucket), and
// the decoded key is accepted only if it re-hashes to the bucket it was
// decoded from and its fingerprint matches fpsum/count. See decode.go.
package invsketch

import (
	"encoding/binary"
	"fmt"

	"github.com/hifind/hifind/internal/sketch"
)

// fingerprintSpace is the range of the per-key verifier fingerprint
// stored in field 1. 8 bits keeps the fpsum counter far from overflow
// under int32 counts while still rejecting 255/256 of decode garbage.
const fingerprintSpace = 256

// Params configures an invertible sketch. Unlike the reversible sketch
// there is no word structure — bucket indices come from ordinary
// 4-universal hashing, because decoding never searches the key space.
type Params struct {
	KeyBits int // key width folded into each bucket (≤64)
	Stages  int // H, independent hash tables
	Buckets int // K, buckets per stage; power of two
}

// Params48 returns the default geometry for the 48-bit connection keys
// ({SIP,Dport}, {DIP,Dport}).
func Params48() Params { return Params{KeyBits: 48, Stages: 3, Buckets: 1 << 12} }

// Params64 returns the default geometry for the 64-bit {SIP,DIP} key.
func Params64() Params { return Params{KeyBits: 64, Stages: 3, Buckets: 1 << 12} }

// Fields returns the number of int32 counters per bucket.
func (p Params) Fields() int { return p.KeyBits + 2 }

// Validate reports whether the parameters describe a buildable sketch.
func (p Params) Validate() error {
	if p.KeyBits < 1 || p.KeyBits > 64 {
		return fmt.Errorf("invsketch: key width %d out of range [1,64]", p.KeyBits)
	}
	if p.Stages < 1 || p.Stages > 15 {
		return fmt.Errorf("invsketch: stages %d out of [1,15]", p.Stages)
	}
	if !sketch.IsPowerOfTwo(p.Buckets) || p.Buckets < 2 {
		return fmt.Errorf("invsketch: buckets %d must be a power of two ≥ 2", p.Buckets)
	}
	return nil
}

// Sketch is an invertible sketch. It is not safe for concurrent use;
// like the other HiFIND structures, the pipeline owns one per monitored
// key type and serializes access.
type Sketch struct {
	params Params
	seed   uint64
	hash   []sketch.Poly4 // per-stage bucket hash
	fph    sketch.Poly4   // fingerprint hash, shared across stages
	// rows[j] holds stage j's buckets as Buckets×Fields contiguous
	// int32 counters: bucket b occupies rows[j][b*Fields:(b+1)*Fields].
	rows    [][]int32
	total   int64
	scratch []float64 // per-stage estimates, reused across Estimate calls
}

// New builds an empty invertible sketch. Equal params and seed ⇒
// identical hashing ⇒ combinable across routers. Construction allocates
// by design and runs at setup or interval boundaries.
//
//hifind:cold
func New(params Params, seed uint64) (*Sketch, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	s := &Sketch{
		params:  params,
		seed:    seed,
		hash:    make([]sketch.Poly4, params.Stages),
		rows:    make([][]int32, params.Stages),
		scratch: make([]float64, params.Stages),
	}
	state := seed
	for j := range s.hash {
		s.hash[j] = sketch.NewPoly4(&state)
	}
	s.fph = sketch.NewPoly4(&state)
	fields := params.Fields()
	backing := make([]int32, params.Stages*params.Buckets*fields)
	rowLen := params.Buckets * fields
	for j := range s.rows {
		s.rows[j] = backing[j*rowLen : (j+1)*rowLen : (j+1)*rowLen]
	}
	return s, nil
}

// Params returns the sketch geometry.
func (s *Sketch) Params() Params { return s.params }

// Seed returns the hash seed.
func (s *Sketch) Seed() uint64 { return s.seed }

// BucketIndex returns the bucket a key maps to in one stage (for tests
// and for reading derived grids). Keys must fit in the declared
// KeyBits; HiFIND's packed connection keys do by construction.
func (s *Sketch) BucketIndex(stage int, key uint64) int {
	return int(s.hash[stage].HashRange(key, s.params.Buckets))
}

// Fingerprint returns the key's 8-bit verifier fingerprint.
func (s *Sketch) Fingerprint(key uint64) int32 {
	return int32(s.fph.HashRange(key, fingerprintSpace))
}

// apply folds one weighted update into a bucket: count, fingerprint sum
// and every key-bit counter. One contiguous Fields-sized write burst.
func (s *Sketch) apply(stage int, bucket uint32, key uint64, fp, v int32) {
	fields := s.params.KeyBits + 2
	base := int(bucket) * fields
	row := s.rows[stage][base : base+fields : base+fields]
	row[0] += v
	row[1] += v * fp
	k := key
	for i := 2; i < fields; i++ {
		row[i] += v * int32(k&1)
		k >>= 1
	}
}

// Update adds v to the key's bucket in every stage (UPDATE), folding
// the key material in alongside the count.
func (s *Sketch) Update(key uint64, v int32) {
	fp := s.Fingerprint(key)
	for j := 0; j < s.params.Stages; j++ {
		s.apply(j, s.hash[j].HashRange(key, s.params.Buckets), key, fp, v)
	}
	s.total += int64(v)
}

// Plan caches the hash work of one key — the per-stage bucket indices
// plus the fingerprint — and carries the key itself for the bit fold.
// Sized for the sketch that created it; holds no counters, so reuse
// across calls is free and allocation-free (the PR-5 plan convention).
type Plan struct {
	idx []uint32
	key uint64
	fp  int32
}

// NewPlan returns a reusable bucket plan sized for this sketch. The
// single allocation happens here; FillPlan and UpdateAt never allocate.
func (s *Sketch) NewPlan() *Plan {
	return &Plan{idx: make([]uint32, s.params.Stages)}
}

// FillPlan computes the bucket index the key selects in every stage
// from its precomputed polynomial powers (shared with every other
// structure hashing the same key) and caches the fingerprint. The
// indices and fingerprint are bit-identical to the ones Update derives:
// HashRangePow equals HashRange for the key the powers came from.
func (s *Sketch) FillPlan(key uint64, kp sketch.KeyPowers, p *Plan) {
	for j := range s.hash {
		p.idx[j] = s.hash[j].HashRangePow(kp, s.params.Buckets)
	}
	p.key = key
	p.fp = int32(s.fph.HashRangePow(kp, fingerprintSpace))
}

// UpdateAt adds v to the planned bucket of every stage — UPDATE with
// the hashing already paid for.
func (s *Sketch) UpdateAt(p *Plan, v int32) {
	for j, ix := range p.idx {
		s.apply(j, ix, p.key, p.fp, v)
	}
	s.total += int64(v)
}

// Snapshot deep-copies the counters in EWMA geometry: Stages rows of
// Buckets×Fields values, ready for timeseries forecasting.
func (s *Sketch) Snapshot() [][]int32 {
	rowLen := s.params.Buckets * s.params.Fields()
	out := make([][]int32, s.params.Stages)
	backing := make([]int32, s.params.Stages*rowLen)
	for j := range s.rows {
		row := backing[j*rowLen : (j+1)*rowLen : (j+1)*rowLen]
		copy(row, s.rows[j])
		out[j] = row
	}
	return out
}

// Total returns the sum of all update values.
func (s *Sketch) Total() int64 { return s.total }

// Occupancy returns the fraction of buckets with a nonzero change
// counter, averaged over stages — the saturation gauge the telemetry
// layer samples at rotation. High occupancy warns that bit-majority
// decoding will see more multi-key buckets.
func (s *Sketch) Occupancy() float64 {
	if s == nil {
		return 0
	}
	fields := s.params.Fields()
	var nonzero, total int
	for j := range s.rows {
		row := s.rows[j]
		for b := 0; b < s.params.Buckets; b++ {
			total++
			if row[b*fields] != 0 {
				nonzero++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(nonzero) / float64(total)
}

// Reset zeroes the counters for the next interval, keeping the hashing.
func (s *Sketch) Reset() {
	for j := range s.rows {
		row := s.rows[j]
		for i := range row {
			row[i] = 0
		}
	}
	s.total = 0
}

// Compatible reports whether two sketches can be combined.
func (s *Sketch) Compatible(o *Sketch) bool {
	return s.params == o.params && s.seed == o.seed
}

// Combine computes Σ cᵢ·Sᵢ over compatible invertible sketches
// (COMBINE). Every bucket field is a plain sum, so merging is exact
// bucket-wise addition — the multi-router aggregation requirement.
func Combine(coeffs []int32, sketches []*Sketch) (*Sketch, error) {
	if len(sketches) == 0 {
		return nil, fmt.Errorf("invsketch: combine of zero sketches")
	}
	if len(coeffs) != len(sketches) {
		return nil, fmt.Errorf("invsketch: %d coefficients for %d sketches", len(coeffs), len(sketches))
	}
	out, err := New(sketches[0].params, sketches[0].seed)
	if err != nil {
		return nil, err
	}
	for n, in := range sketches {
		if !out.Compatible(in) {
			return nil, fmt.Errorf("invsketch: operand %d incompatible", n)
		}
		c := coeffs[n]
		for j := range out.rows {
			dst, src := out.rows[j], in.rows[j]
			for i := range dst {
				dst[i] += c * src[i]
			}
		}
		out.total += int64(c) * in.total
	}
	return out, nil
}

// MemoryBytes returns the counter footprint.
func (s *Sketch) MemoryBytes() int {
	return s.params.Stages * s.params.Buckets * s.params.Fields() * 4
}

const sketchMagic = uint32(0x48694953) // "HiIS"

// MarshalBinary serializes counters plus identifying parameters. The
// layout is a fixed-order flat array — deterministic byte-for-byte for
// identical state, the checkpoint-interchange requirement.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	rowLen := s.params.Buckets * s.params.Fields()
	buf := make([]byte, 0, 36+4*s.params.Stages*rowLen)
	buf = binary.LittleEndian.AppendUint32(buf, sketchMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.params.KeyBits))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.params.Stages))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.params.Buckets))
	buf = binary.LittleEndian.AppendUint64(buf, s.seed)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.total))
	for j := range s.rows {
		for _, c := range s.rows[j] {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
		}
	}
	return buf, nil
}

// UnmarshalBinary reverses MarshalBinary.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 32 {
		return fmt.Errorf("invsketch: truncated header (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint32(data) != sketchMagic {
		return fmt.Errorf("invsketch: bad magic %#x", binary.LittleEndian.Uint32(data))
	}
	params := Params{
		KeyBits: int(binary.LittleEndian.Uint32(data[4:])),
		Stages:  int(binary.LittleEndian.Uint32(data[8:])),
		Buckets: int(binary.LittleEndian.Uint32(data[12:])),
	}
	if err := params.Validate(); err != nil {
		return fmt.Errorf("invsketch: unmarshal: %w", err)
	}
	seed := binary.LittleEndian.Uint64(data[16:])
	total := int64(binary.LittleEndian.Uint64(data[24:]))
	// Bound the cell count by the body before multiplying, so no header
	// can wrap want or size an allocation the payload does not carry.
	if params.Stages > (len(data)-32)/4/params.Buckets/params.Fields() {
		return fmt.Errorf("invsketch: %d×%d×%d counters exceed the %d-byte body",
			params.Stages, params.Buckets, params.Fields(), len(data)-32)
	}
	rowLen := params.Buckets * params.Fields()
	if want := 32 + 4*params.Stages*rowLen; len(data) != want {
		return fmt.Errorf("invsketch: body length %d, want %d", len(data), want)
	}
	fresh, err := New(params, seed)
	if err != nil {
		return fmt.Errorf("invsketch: unmarshal: %w", err)
	}
	off := 32
	for j := range fresh.rows {
		row := fresh.rows[j]
		for i := range row {
			row[i] = int32(binary.LittleEndian.Uint32(data[off:]))
			off += 4
		}
	}
	fresh.total = total
	*s = *fresh
	return nil
}
