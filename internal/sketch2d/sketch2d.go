// Package sketch2d implements the paper's novel two-dimensional k-ary
// sketch (§4). A 2D sketch is H independent Kx×Ky matrices; the x and y
// dimensions are hashed from two different key groups (e.g. x={SIP,DIP},
// y={Dport}). After another detector names an x-key, the column of buckets
// it selects approximates the distribution of the y-key for that x-key —
// enough to tell a SYN flooding (y mass concentrated on one or two ports)
// from a vertical scan (y mass spread over many ports) without keeping any
// per-flow state.
package sketch2d

import (
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/hifind/hifind/internal/sketch"
)

// Params configures a 2D sketch. The paper uses 5 stages of 2^12×64
// matrices for both deployed 2D sketches.
type Params struct {
	Stages   int // H, independent matrices
	XBuckets int // Kx, power of two
	YBuckets int // Ky, power of two
}

// PaperParams returns the evaluation geometry from paper §5.1.
func PaperParams() Params { return Params{Stages: 5, XBuckets: 1 << 12, YBuckets: 64} }

// Validate reports whether the parameters describe a buildable sketch.
func (p Params) Validate() error {
	if p.Stages < 1 {
		return fmt.Errorf("sketch2d: stages %d < 1", p.Stages)
	}
	if !sketch.IsPowerOfTwo(p.XBuckets) || p.XBuckets < 2 {
		return fmt.Errorf("sketch2d: x buckets %d must be a power of two ≥ 2", p.XBuckets)
	}
	if !sketch.IsPowerOfTwo(p.YBuckets) || p.YBuckets < 2 {
		return fmt.Errorf("sketch2d: y buckets %d must be a power of two ≥ 2", p.YBuckets)
	}
	return nil
}

// Sketch is a two-dimensional k-ary sketch. Matrices are stored row-major
// per stage: bucket (x,y) lives at counts[stage][x*YBuckets+y].
type Sketch struct {
	params Params
	seed   uint64
	xHash  []sketch.Poly4
	yHash  []sketch.Poly4
	counts [][]int32
	total  int64
}

// New builds an empty 2D sketch; equal params and seed ⇒ combinable.
// Construction allocates by design and runs at setup or interval
// boundaries — even when reached from COMBINE, it is off the per-packet
// path.
//
//hifind:cold
func New(params Params, seed uint64) (*Sketch, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	s := &Sketch{
		params: params,
		seed:   seed,
		xHash:  make([]sketch.Poly4, params.Stages),
		yHash:  make([]sketch.Poly4, params.Stages),
		counts: make([][]int32, params.Stages),
	}
	state := seed
	per := params.XBuckets * params.YBuckets
	backing := make([]int32, params.Stages*per)
	for j := 0; j < params.Stages; j++ {
		s.xHash[j] = sketch.NewPoly4(&state)
		s.yHash[j] = sketch.NewPoly4(&state)
		s.counts[j] = backing[j*per : (j+1)*per : (j+1)*per]
	}
	return s, nil
}

// Params returns the sketch geometry.
func (s *Sketch) Params() Params { return s.params }

// Seed returns the hash seed.
func (s *Sketch) Seed() uint64 { return s.seed }

// Update adds v to bucket (hx(xKey), hy(yKey)) in every stage — one memory
// access per matrix, the "5 accesses per packet" of paper §5.5.2.
func (s *Sketch) Update(xKey, yKey uint64, v int32) {
	for j := 0; j < s.params.Stages; j++ {
		x := int(s.xHash[j].HashRange(xKey, s.params.XBuckets))
		y := int(s.yHash[j].HashRange(yKey, s.params.YBuckets))
		s.counts[j][x*s.params.YBuckets+y] += v
	}
	s.total += int64(v)
}

// Plan caches the flattened (x,y) offset one (xKey,yKey) pair selects
// in every stage — an Update's hash work, done once and replayable by
// UpdateAt. Sized for the sketch that created it; reuse across calls is
// free and allocation-free.
type Plan struct {
	idx []int32
}

// NewPlan returns a reusable bucket plan sized for this sketch.
func (s *Sketch) NewPlan() *Plan {
	return &Plan{idx: make([]int32, s.params.Stages)}
}

// FillPlan computes each stage's matrix offset from the two keys'
// precomputed hash powers — bit-identical to the offsets Update derives.
func (s *Sketch) FillPlan(xkp, ykp sketch.KeyPowers, p *Plan) {
	for j := 0; j < s.params.Stages; j++ {
		x := int(s.xHash[j].HashRangePow(xkp, s.params.XBuckets))
		y := int(s.yHash[j].HashRangePow(ykp, s.params.YBuckets))
		p.idx[j] = int32(x*s.params.YBuckets + y)
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

// Column returns a copy of the y-distribution column selected by xKey in
// one stage.
func (s *Sketch) Column(stage int, xKey uint64) []int32 {
	x := int(s.xHash[stage].HashRange(xKey, s.params.XBuckets))
	col := make([]int32, s.params.YBuckets)
	copy(col, s.counts[stage][x*s.params.YBuckets:(x+1)*s.params.YBuckets])
	return col
}

// ConcentrationResult reports the per-stage outcome of the top-p test.
type ConcentrationResult struct {
	// Votes counts stages whose column passed the concentration test
	// S_p > φ·B.
	Votes int
	// Stages is the number of stages with usable (positive-mass) columns.
	Stages int
	// Concentrated is the majority decision of paper §4.
	Concentrated bool
}

// Concentrated runs the paper's classification test for the given x-key:
// in each stage, with B the (positive) column mass and S_p the mass of the
// top p buckets, the stage votes "concentrated" iff S_p > φ·B; the final
// answer is the majority vote. For the {SIP,DIP}×{Dport} sketch,
// concentrated ⇒ SYN flooding, spread ⇒ vertical scan.
//
// Negative buckets (SYN/ACK surplus from unrelated flows sharing the
// column) carry no distribution information and are ignored. A column with
// no positive mass cannot vote.
func (s *Sketch) Concentrated(xKey uint64, p int, phi float64) ConcentrationResult {
	if p < 1 {
		p = 1
	}
	if p > s.params.YBuckets {
		p = s.params.YBuckets
	}
	var res ConcentrationResult
	col := make([]float64, s.params.YBuckets)
	for j := 0; j < s.params.Stages; j++ {
		x := int(s.xHash[j].HashRange(xKey, s.params.XBuckets))
		row := s.counts[j][x*s.params.YBuckets : (x+1)*s.params.YBuckets]
		var b float64
		for i, v := range row {
			if v > 0 {
				col[i] = float64(v)
				b += float64(v)
			} else {
				col[i] = 0
			}
		}
		if b <= 0 {
			continue
		}
		res.Stages++
		sp := topSum(col, p)
		if sp > phi*b {
			res.Votes++
		}
	}
	res.Concentrated = res.Stages > 0 && res.Votes*2 > res.Stages
	return res
}

// DistinctYEstimate estimates how many y buckets carry real mass for the
// x-key (median across stages), a proxy for "#unique ports" / "#unique
// destinations" used when reporting scans (paper Tables 7–8) and for the
// Figure 4 histogram.
func (s *Sketch) DistinctYEstimate(xKey uint64, minMass int32) int {
	counts := make([]int, 0, s.params.Stages)
	for j := 0; j < s.params.Stages; j++ {
		x := int(s.xHash[j].HashRange(xKey, s.params.XBuckets))
		row := s.counts[j][x*s.params.YBuckets : (x+1)*s.params.YBuckets]
		n := 0
		for _, v := range row {
			if v >= minMass {
				n++
			}
		}
		counts = append(counts, n)
	}
	sort.Ints(counts)
	return counts[len(counts)/2]
}

// topSum returns the sum of the p largest values. It partially selects via
// a small insertion-ordered buffer; Ky is at most a few hundred so this is
// cheaper than sorting the whole column.
func topSum(col []float64, p int) float64 {
	top := make([]float64, 0, p)
	for _, v := range col {
		if v <= 0 {
			continue
		}
		if len(top) < p {
			top = append(top, v)
			for i := len(top) - 1; i > 0 && top[i] > top[i-1]; i-- {
				top[i], top[i-1] = top[i-1], top[i]
			}
			continue
		}
		if v > top[p-1] {
			top[p-1] = v
			for i := p - 1; i > 0 && top[i] > top[i-1]; i-- {
				top[i], top[i-1] = top[i-1], top[i]
			}
		}
	}
	var s float64
	for _, v := range top {
		s += v
	}
	return s
}

// Reset zeroes the counters for the next interval.
func (s *Sketch) Reset() {
	for j := range s.counts {
		row := s.counts[j]
		for i := range row {
			row[i] = 0
		}
	}
	s.total = 0
}

// Total returns the sum of all update values.
func (s *Sketch) Total() int64 { return s.total }

// Compatible reports whether two sketches can be combined.
func (s *Sketch) Compatible(o *Sketch) bool {
	return s.params == o.params && s.seed == o.seed
}

// Combine computes Σ cᵢ·Sᵢ over compatible 2D sketches, the aggregation
// path for multi-router deployments (paper §3.1 applies it to 2D sketches
// "in the same way").
func Combine(coeffs []int32, sketches []*Sketch) (*Sketch, error) {
	if len(sketches) == 0 {
		return nil, fmt.Errorf("sketch2d: combine of zero sketches")
	}
	if len(coeffs) != len(sketches) {
		return nil, fmt.Errorf("sketch2d: %d coefficients for %d sketches", len(coeffs), len(sketches))
	}
	out, err := New(sketches[0].params, sketches[0].seed)
	if err != nil {
		return nil, err
	}
	for n, in := range sketches {
		if !out.Compatible(in) {
			return nil, fmt.Errorf("sketch2d: operand %d incompatible", n)
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

// MemoryBytes returns the counter footprint.
func (s *Sketch) MemoryBytes() int {
	return s.params.Stages * s.params.XBuckets * s.params.YBuckets * 4
}

const sketchMagic = uint32(0x48693244) // "Hi2D"

// MarshalBinary serializes the sketch for shipping to an aggregation site.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	per := s.params.XBuckets * s.params.YBuckets
	buf := make([]byte, 0, 32+4*s.params.Stages*per)
	buf = binary.LittleEndian.AppendUint32(buf, sketchMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.params.Stages))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.params.XBuckets))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.params.YBuckets))
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
	if len(data) < 32 {
		return fmt.Errorf("sketch2d: truncated header (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint32(data) != sketchMagic {
		return fmt.Errorf("sketch2d: bad magic %#x", binary.LittleEndian.Uint32(data))
	}
	params := Params{
		Stages:   int(binary.LittleEndian.Uint32(data[4:])),
		XBuckets: int(binary.LittleEndian.Uint32(data[8:])),
		YBuckets: int(binary.LittleEndian.Uint32(data[12:])),
	}
	if err := params.Validate(); err != nil {
		return fmt.Errorf("sketch2d: unmarshal: %w", err)
	}
	seed := binary.LittleEndian.Uint64(data[16:])
	total := int64(binary.LittleEndian.Uint64(data[24:]))
	// Bound the cell count by the body before multiplying: a crafted
	// 2³¹×2³¹ matrix would otherwise wrap want back to the header size.
	if params.Stages > (len(data)-32)/4/params.XBuckets/params.YBuckets {
		return fmt.Errorf("sketch2d: %d×%d×%d counters exceed the %d-byte body",
			params.Stages, params.XBuckets, params.YBuckets, len(data)-32)
	}
	if want := 32 + 4*params.Stages*params.XBuckets*params.YBuckets; len(data) != want {
		return fmt.Errorf("sketch2d: body length %d, want %d", len(data), want)
	}
	fresh, err := New(params, seed)
	if err != nil {
		return fmt.Errorf("sketch2d: unmarshal: %w", err)
	}
	off := 32
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
