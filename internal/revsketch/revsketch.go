// Package revsketch implements the reversible sketch of Schweller et al.
// (IMC 2004, Infocom 2006), the data structure HiFIND is built on. A
// reversible sketch is a k-ary sketch whose bucket indices are formed by
// *modular hashing*: the (mangled) key is split into q words and each word
// is hashed independently to a small chunk; the concatenated chunks form
// the bucket index. Because each chunk depends on only one key word, the
// heavy buckets of a stage can be "reverse hashed" back to candidate keys
// word by word — the INFERENCE operation of paper Table 2 that plain
// sketches cannot support.
package revsketch

import (
	"encoding/binary"
	"fmt"

	"github.com/hifind/hifind/internal/sketch"
)

// Params configures a reversible sketch. The paper's two geometries:
//
//	48-bit keys ({SIP,Dport}, {DIP,Dport}): 6 stages × 2^12 buckets,
//	  4 words × 12 bits hashed to 4 chunks × 3 bits
//	64-bit keys ({SIP,DIP}): 6 stages × 2^16 buckets,
//	  4 words × 16 bits hashed to 4 chunks × 4 bits
type Params struct {
	KeyBits int // total key width (≤64)
	Words   int // q, number of words the key splits into
	Stages  int // H, independent hash tables
	Buckets int // K, counters per stage; power of two; log2 divisible by Words
}

// Params48 returns the paper's geometry for 48-bit keys.
func Params48() Params { return Params{KeyBits: 48, Words: 4, Stages: 6, Buckets: 1 << 12} }

// Params64 returns the paper's geometry for 64-bit keys.
func Params64() Params { return Params{KeyBits: 64, Words: 4, Stages: 6, Buckets: 1 << 16} }

// Validate reports whether the parameters describe a buildable sketch.
func (p Params) Validate() error {
	if p.KeyBits < 1 || p.KeyBits > 64 {
		return fmt.Errorf("revsketch: key width %d out of range [1,64]", p.KeyBits)
	}
	if p.Words < 1 {
		return fmt.Errorf("revsketch: words %d < 1", p.Words)
	}
	if p.Stages < 1 || p.Stages > 15 {
		return fmt.Errorf("revsketch: stages %d out of [1,15]", p.Stages)
	}
	if !sketch.IsPowerOfTwo(p.Buckets) || p.Buckets < 2 {
		return fmt.Errorf("revsketch: buckets %d must be a power of two ≥ 2", p.Buckets)
	}
	if p.KeyBits%p.Words != 0 {
		return fmt.Errorf("revsketch: key width %d not divisible by %d words", p.KeyBits, p.Words)
	}
	if sketch.Log2(p.Buckets)%p.Words != 0 {
		return fmt.Errorf("revsketch: log2(buckets)=%d not divisible by %d words",
			sketch.Log2(p.Buckets), p.Words)
	}
	if p.KeyBits/p.Words > 20 {
		return fmt.Errorf("revsketch: word width %d too large for tabulation (max 20)",
			p.KeyBits/p.Words)
	}
	if p.KeyBits/p.Words < sketch.Log2(p.Buckets)/p.Words {
		return fmt.Errorf("revsketch: chunk wider than word")
	}
	return nil
}

func (p Params) wordBits() int  { return p.KeyBits / p.Words }
func (p Params) chunkBits() int { return sketch.Log2(p.Buckets) / p.Words }

// Sketch is a reversible sketch. It is not safe for concurrent use; the
// HiFIND pipeline owns one per monitored key type and serializes access.
type Sketch struct {
	params  Params
	seed    uint64
	mangler sketch.Mangler
	// wordTab[stage][word][w] is the chunk the w-th word value hashes to.
	wordTab [][][]uint8
	counts  [][]int32
	total   int64
	scratch []float64 // per-stage estimates, reused across Estimate calls
	// revBits[stage][word][chunk] is the bitset of word values hashing to
	// chunk (bit w set ⇔ wordTab[stage][word][w] == chunk); built lazily
	// on first inference. Bitsets let the reverse search test candidate
	// words 64 at a time.
	revBits [][][][]uint64
}

// New builds an empty reversible sketch. Equal params and seed ⇒ identical
// hashing ⇒ combinable (the multi-router aggregation requirement).
// Construction allocates by design and runs at setup or interval
// boundaries — even when reached from COMBINE, it is off the per-packet
// path.
//
//hifind:cold
func New(params Params, seed uint64) (*Sketch, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	state := seed
	m, err := sketch.NewMangler(params.KeyBits, &state)
	if err != nil {
		return nil, fmt.Errorf("revsketch: %w", err)
	}
	s := &Sketch{
		params:  params,
		seed:    seed,
		mangler: m,
		wordTab: make([][][]uint8, params.Stages),
		counts:  make([][]int32, params.Stages),
		scratch: make([]float64, params.Stages),
	}
	wordSpace := 1 << uint(params.wordBits())
	chunkSpace := 1 << uint(params.chunkBits())
	backing := make([]int32, params.Stages*params.Buckets)
	for j := 0; j < params.Stages; j++ {
		s.counts[j] = backing[j*params.Buckets : (j+1)*params.Buckets : (j+1)*params.Buckets]
		s.wordTab[j] = make([][]uint8, params.Words)
		for i := 0; i < params.Words; i++ {
			poly := sketch.NewPoly4(&state)
			tab := make([]uint8, wordSpace)
			for w := 0; w < wordSpace; w++ {
				tab[w] = uint8(poly.HashRange(uint64(w), chunkSpace))
			}
			s.wordTab[j][i] = tab
		}
	}
	return s, nil
}

// Params returns the sketch geometry.
func (s *Sketch) Params() Params { return s.params }

// Seed returns the hash seed.
func (s *Sketch) Seed() uint64 { return s.seed }

// splitWords decomposes a mangled key into its q words, least significant
// word first.
func (s *Sketch) splitWords(mangled uint64) [8]uint32 {
	var words [8]uint32
	wb := uint(s.params.wordBits())
	mask := uint64(1)<<wb - 1
	for i := 0; i < s.params.Words; i++ {
		words[i] = uint32(mangled >> (uint(i) * wb) & mask)
	}
	return words
}

// joinWords is the inverse of splitWords.
func (s *Sketch) joinWords(words []uint32) uint64 {
	wb := uint(s.params.wordBits())
	var key uint64
	for i, w := range words {
		key |= uint64(w) << (uint(i) * wb)
	}
	return key
}

// bucketIndex computes the modular-hash bucket of a mangled key in one
// stage: the concatenation of per-word chunks.
func (s *Sketch) bucketIndex(stage int, words [8]uint32) int {
	cb := uint(s.params.chunkBits())
	var idx int
	for i := 0; i < s.params.Words; i++ {
		idx |= int(s.wordTab[stage][i][words[i]]) << (uint(i) * cb)
	}
	return idx
}

// BucketIndex returns the bucket a key maps to in one stage (for tests
// and for reading derived grids).
func (s *Sketch) BucketIndex(stage int, key uint64) int {
	return s.bucketIndex(stage, s.splitWords(s.mangler.Mangle(key)))
}

// Update adds v to the key's bucket in every stage (UPDATE). One counter
// write per stage — the per-packet memory-access budget of paper §5.5.2.
func (s *Sketch) Update(key uint64, v int32) {
	words := s.splitWords(s.mangler.Mangle(key))
	for j := 0; j < s.params.Stages; j++ {
		s.counts[j][s.bucketIndex(j, words)] += v
	}
	s.total += int64(v)
}

// Plan caches the per-stage bucket indices of one key: the mangling,
// word split and per-word tabulation lookups of an Update, done once
// and replayable by UpdateAt. Sized for the sketch that created it;
// holds no counters, so reuse across calls is free and allocation-free.
type Plan struct {
	idx []uint32
}

// NewPlan returns a reusable bucket plan sized for this sketch.
func (s *Sketch) NewPlan() *Plan {
	return &Plan{idx: make([]uint32, s.params.Stages)}
}

// FillPlan mangles the key, splits it into words and caches the
// modular-hash bucket of every stage — exactly the indices Update
// writes through.
func (s *Sketch) FillPlan(key uint64, p *Plan) {
	words := s.splitWords(s.mangler.Mangle(key))
	for j := 0; j < s.params.Stages; j++ {
		p.idx[j] = uint32(s.bucketIndex(j, words))
	}
}

// UpdateAt adds v to the planned bucket of every stage — UPDATE with
// the hashing already paid for.
func (s *Sketch) UpdateAt(p *Plan, v int32) {
	for j, ix := range p.idx {
		s.counts[j][ix] += v
	}
	s.total += int64(v)
}

// Estimate reconstructs the key's value with the k-ary mean-corrected
// median estimator (ESTIMATE).
func (s *Sketch) Estimate(key uint64) float64 {
	words := s.splitWords(s.mangler.Mangle(key))
	k := float64(s.params.Buckets)
	est := s.scratch
	for j := 0; j < s.params.Stages; j++ {
		c := float64(s.counts[j][s.bucketIndex(j, words)])
		est[j] = (c - float64(s.total)/k) / (1 - 1/k)
	}
	return sketch.MedianInPlace(est)
}

// EstimateGrid estimates a key's value from an external grid sharing this
// sketch's geometry (e.g. a forecast-error grid). Per-stage totals are
// computed by the caller via GridTotals to avoid rescanning.
func (s *Sketch) EstimateGrid(g sketch.Grid, totals []float64, key uint64) float64 {
	words := s.splitWords(s.mangler.Mangle(key))
	k := float64(s.params.Buckets)
	est := s.scratch
	for j := 0; j < s.params.Stages; j++ {
		c := g[j][s.bucketIndex(j, words)]
		est[j] = (c - totals[j]/k) / (1 - 1/k)
	}
	return sketch.MedianInPlace(est)
}

// GridTotals returns each stage's sum for use with EstimateGrid.
func GridTotals(g sketch.Grid) []float64 {
	t := make([]float64, g.Stages())
	for j := range t {
		t[j] = g.Sum(j)
	}
	return t
}

// Snapshot deep-copies the counters.
func (s *Sketch) Snapshot() [][]int32 {
	out := make([][]int32, s.params.Stages)
	backing := make([]int32, s.params.Stages*s.params.Buckets)
	for j := range s.counts {
		row := backing[j*s.params.Buckets : (j+1)*s.params.Buckets : (j+1)*s.params.Buckets]
		copy(row, s.counts[j])
		out[j] = row
	}
	return out
}

// Total returns the sum of all update values.
func (s *Sketch) Total() int64 { return s.total }

// Occupancy returns the fraction of nonzero counters averaged over all
// stages — the saturation gauge sampled at rotation by the telemetry
// layer. High occupancy on a reversible sketch warns that reverse
// inference will surface many spurious candidate keys.
func (s *Sketch) Occupancy() float64 {
	if s == nil {
		return 0
	}
	var nonzero, total int
	for j := range s.counts {
		row := s.counts[j]
		total += len(row)
		for _, v := range row {
			if v != 0 {
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
	for j := range s.counts {
		row := s.counts[j]
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

// Combine computes Σ cᵢ·Sᵢ over compatible reversible sketches (COMBINE).
func Combine(coeffs []int32, sketches []*Sketch) (*Sketch, error) {
	if len(sketches) == 0 {
		return nil, fmt.Errorf("revsketch: combine of zero sketches")
	}
	if len(coeffs) != len(sketches) {
		return nil, fmt.Errorf("revsketch: %d coefficients for %d sketches", len(coeffs), len(sketches))
	}
	out, err := New(sketches[0].params, sketches[0].seed)
	if err != nil {
		return nil, err
	}
	for n, in := range sketches {
		if !out.Compatible(in) {
			return nil, fmt.Errorf("revsketch: operand %d incompatible", n)
		}
		c := coeffs[n]
		for j := range out.counts {
			dst, src := out.counts[j], in.counts[j]
			for i := range dst {
				dst[i] += c * src[i]
			}
		}
		out.total += int64(c) * in.total
	}
	return out, nil
}

// MemoryBytes returns the counter footprint (word tables are shared
// read-only hash state, counted separately by callers that care).
func (s *Sketch) MemoryBytes() int {
	return s.params.Stages * s.params.Buckets * 4
}

const sketchMagic = uint32(0x48695253) // "HiRS"

// MarshalBinary serializes counters plus identifying parameters.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 36+4*s.params.Stages*s.params.Buckets)
	buf = binary.LittleEndian.AppendUint32(buf, sketchMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.params.KeyBits))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.params.Words))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.params.Stages))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.params.Buckets))
	buf = binary.LittleEndian.AppendUint64(buf, s.seed)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.total))
	for j := range s.counts {
		for _, c := range s.counts[j] {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
		}
	}
	return buf, nil
}

// UnmarshalBinary reverses MarshalBinary.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 36 {
		return fmt.Errorf("revsketch: truncated header (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint32(data) != sketchMagic {
		return fmt.Errorf("revsketch: bad magic %#x", binary.LittleEndian.Uint32(data))
	}
	params := Params{
		KeyBits: int(binary.LittleEndian.Uint32(data[4:])),
		Words:   int(binary.LittleEndian.Uint32(data[8:])),
		Stages:  int(binary.LittleEndian.Uint32(data[12:])),
		Buckets: int(binary.LittleEndian.Uint32(data[16:])),
	}
	if err := params.Validate(); err != nil {
		return fmt.Errorf("revsketch: unmarshal: %w", err)
	}
	seed := binary.LittleEndian.Uint64(data[20:])
	total := int64(binary.LittleEndian.Uint64(data[28:]))
	// Bound the cell count by the body before multiplying, so no header
	// can wrap want or size an allocation the payload does not carry.
	if params.Stages > (len(data)-36)/4/params.Buckets {
		return fmt.Errorf("revsketch: %d×%d counters exceed the %d-byte body", params.Stages, params.Buckets, len(data)-36)
	}
	if want := 36 + 4*params.Stages*params.Buckets; len(data) != want {
		return fmt.Errorf("revsketch: body length %d, want %d", len(data), want)
	}
	fresh, err := New(params, seed)
	if err != nil {
		return fmt.Errorf("revsketch: unmarshal: %w", err)
	}
	off := 36
	for j := range fresh.counts {
		row := fresh.counts[j]
		for i := range row {
			row[i] = int32(binary.LittleEndian.Uint32(data[off:]))
			off += 4
		}
	}
	fresh.total = total
	*s = *fresh
	return nil
}
