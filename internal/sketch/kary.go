package sketch

import (
	"encoding/binary"
	"fmt"
)

// Params configures a k-ary sketch.
type Params struct {
	// Stages is the number of independent hash tables (H in the paper).
	Stages int
	// Buckets is the number of counters per stage (K); must be a power of
	// two so bucket selection is a mask.
	Buckets int
}

// Validate reports whether the parameters describe a buildable sketch.
func (p Params) Validate() error {
	if p.Stages < 1 {
		return fmt.Errorf("sketch: stages %d < 1", p.Stages)
	}
	if !IsPowerOfTwo(p.Buckets) {
		return fmt.Errorf("sketch: buckets %d is not a power of two", p.Buckets)
	}
	if p.Buckets < 2 {
		return fmt.Errorf("sketch: buckets %d < 2", p.Buckets)
	}
	return nil
}

// Sketch is a k-ary sketch: H stages of K counters, each stage indexed by
// an independent 4-universal hash of the key. Counters are int32 because
// HiFIND records signed values (#SYN − #SYN/ACK); int32 matches the
// paper's 13.2 MB memory budget. A Sketch is not safe for concurrent
// use: Update mutates counters and Estimate reuses a scratch buffer that
// keeps the per-key estimate allocation-free.
type Sketch struct {
	params  Params
	seed    uint64
	hash    []Poly4
	counts  [][]int32
	total   int64     // sum of all update values, for the k-ary estimator
	scratch []float64 // per-stage estimates, reused across Estimate calls
}

// New builds an empty sketch. Sketches built with equal params and seed
// share hash functions and may be combined. Construction allocates by
// design and runs at setup or interval boundaries — even when reached
// from COMBINE, it is off the per-packet path.
//
//hifind:cold
func New(params Params, seed uint64) (*Sketch, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	s := &Sketch{
		params:  params,
		seed:    seed,
		hash:    make([]Poly4, params.Stages),
		counts:  make([][]int32, params.Stages),
		scratch: make([]float64, params.Stages),
	}
	state := seed
	backing := make([]int32, params.Stages*params.Buckets)
	for i := 0; i < params.Stages; i++ {
		s.hash[i] = NewPoly4(&state)
		s.counts[i] = backing[i*params.Buckets : (i+1)*params.Buckets : (i+1)*params.Buckets]
	}
	return s, nil
}

// Params returns the sketch geometry.
func (s *Sketch) Params() Params { return s.params }

// Seed returns the hash seed.
func (s *Sketch) Seed() uint64 { return s.seed }

// Update adds v to the key's counter in every stage (paper Table 2 UPDATE).
func (s *Sketch) Update(key uint64, v int32) {
	for i, h := range s.hash {
		s.counts[i][h.HashRange(key, s.params.Buckets)] += v
	}
	s.total += int64(v)
}

// BucketIndex returns the bucket the key maps to in one stage. Exposed so
// derived structures (EWMA error grids) can be read for a specific key.
func (s *Sketch) BucketIndex(stage int, key uint64) int {
	return int(s.hash[stage].HashRange(key, s.params.Buckets))
}

// Estimate reconstructs the key's value (paper Table 2 ESTIMATE) using the
// mean-corrected per-stage estimate
//
//	v_j = (count_j − total/K) / (1 − 1/K)
//
// and returns the median across stages, the unbiased k-ary estimator.
func (s *Sketch) Estimate(key uint64) float64 {
	k := float64(s.params.Buckets)
	est := s.scratch
	for i, h := range s.hash {
		c := float64(s.counts[i][h.HashRange(key, s.params.Buckets)])
		est[i] = (c - float64(s.total)/k) / (1 - 1/k)
	}
	return MedianInPlace(est)
}

// EstimateGrid applies the same estimator to an external value grid that
// shares this sketch's geometry and hashing — e.g. a forecast-error grid.
// gridTotal must be the sum of one stage of the grid (all stages of a
// well-formed grid have the same total).
func (s *Sketch) EstimateGrid(g Grid, gridTotal float64, key uint64) float64 {
	k := float64(s.params.Buckets)
	est := s.scratch
	for i, h := range s.hash {
		c := g[i][h.HashRange(key, s.params.Buckets)]
		est[i] = (c - gridTotal/k) / (1 - 1/k)
	}
	return MedianInPlace(est)
}

// Snapshot deep-copies the counter array, e.g. for the forecaster.
func (s *Sketch) Snapshot() [][]int32 {
	out := make([][]int32, s.params.Stages)
	backing := make([]int32, s.params.Stages*s.params.Buckets)
	for i := range s.counts {
		row := backing[i*s.params.Buckets : (i+1)*s.params.Buckets : (i+1)*s.params.Buckets]
		copy(row, s.counts[i])
		out[i] = row
	}
	return out
}

// Total returns the sum of all values updated into the sketch.
func (s *Sketch) Total() int64 { return s.total }

// Occupancy returns the fraction of counters holding a nonzero value,
// averaged over all stages. Sampled at interval rotation it is the
// saturation signal the telemetry layer exposes: as occupancy
// approaches 1 the k-ary estimates lose the sparsity their variance
// bound assumes, which is exactly the condition a DoS against the
// monitor itself would induce.
func (s *Sketch) Occupancy() float64 {
	if s == nil {
		return 0
	}
	var nonzero, total int
	for i := range s.counts {
		row := s.counts[i]
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

// Reset zeroes the counters for the next measurement interval. The hash
// functions are kept, so estimates remain comparable across intervals.
func (s *Sketch) Reset() {
	for i := range s.counts {
		row := s.counts[i]
		for j := range row {
			row[j] = 0
		}
	}
	s.total = 0
}

// Compatible reports whether two sketches share geometry and hashing and
// can therefore be combined.
func (s *Sketch) Compatible(o *Sketch) bool {
	return s.params == o.params && s.seed == o.seed
}

// Combine computes the linear combination Σ cᵢ·Sᵢ of compatible sketches
// (paper Table 2 COMBINE) into a fresh sketch. This is what lets HiFIND
// aggregate per-router sketches at a central site: by linearity the result
// is the sketch that a single router seeing all traffic would have built.
func Combine(coeffs []int32, sketches []*Sketch) (*Sketch, error) {
	if len(sketches) == 0 {
		return nil, fmt.Errorf("sketch: combine of zero sketches")
	}
	if len(coeffs) != len(sketches) {
		return nil, fmt.Errorf("sketch: %d coefficients for %d sketches", len(coeffs), len(sketches))
	}
	out, err := New(sketches[0].params, sketches[0].seed)
	if err != nil {
		return nil, err
	}
	for n, in := range sketches {
		if !out.Compatible(in) {
			return nil, fmt.Errorf("sketch: operand %d incompatible (params %+v seed %d)", n, in.params, in.seed)
		}
		c := coeffs[n]
		for i := range out.counts {
			dst, src := out.counts[i], in.counts[i]
			for j := range dst {
				dst[j] += c * src[j]
			}
		}
		out.total += int64(c) * in.total
	}
	return out, nil
}

// MemoryBytes returns the counter memory footprint, the number the paper's
// Table 9 compares against per-flow tables.
func (s *Sketch) MemoryBytes() int {
	return s.params.Stages * s.params.Buckets * 4
}

// marshal layout: stages, buckets (uint32 each), seed, total, counters.
const sketchMagic = uint32(0x48694b53) // "HiKS"

// MarshalBinary serializes the sketch so routers can ship it to the
// aggregation site. Counters dominate; the encoding is fixed-width
// little-endian with a magic/version header.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 4+4+4+8+8+4*s.params.Stages*s.params.Buckets)
	buf = binary.LittleEndian.AppendUint32(buf, sketchMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.params.Stages))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.params.Buckets))
	buf = binary.LittleEndian.AppendUint64(buf, s.seed)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.total))
	for i := range s.counts {
		for _, c := range s.counts[i] {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
		}
	}
	return buf, nil
}

// UnmarshalBinary reverses MarshalBinary, rebuilding hash functions from
// the serialized seed.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 28 {
		return fmt.Errorf("sketch: truncated header (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint32(data) != sketchMagic {
		return fmt.Errorf("sketch: bad magic %#x", binary.LittleEndian.Uint32(data))
	}
	params := Params{
		Stages:  int(binary.LittleEndian.Uint32(data[4:])),
		Buckets: int(binary.LittleEndian.Uint32(data[8:])),
	}
	seed := binary.LittleEndian.Uint64(data[12:])
	total := int64(binary.LittleEndian.Uint64(data[20:]))
	if err := params.Validate(); err != nil {
		return fmt.Errorf("sketch: unmarshal: %w", err)
	}
	// Bound the cell count by the body before multiplying: a crafted
	// 2³¹×2³¹ header would otherwise wrap want back to the header size
	// and send New after the whole address space.
	if params.Stages > (len(data)-28)/4/params.Buckets {
		return fmt.Errorf("sketch: %d×%d counters exceed the %d-byte body", params.Stages, params.Buckets, len(data)-28)
	}
	if want := 28 + 4*params.Stages*params.Buckets; len(data) != want {
		return fmt.Errorf("sketch: body length %d, want %d", len(data), want)
	}
	fresh, err := New(params, seed)
	if err != nil {
		return fmt.Errorf("sketch: unmarshal: %w", err)
	}
	off := 28
	for i := range fresh.counts {
		row := fresh.counts[i]
		for j := range row {
			row[j] = int32(binary.LittleEndian.Uint32(data[off:]))
			off += 4
		}
	}
	fresh.total = total
	*s = *fresh
	return nil
}
