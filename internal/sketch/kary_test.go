package sketch

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, p Params, seed uint64) *Sketch {
	t.Helper()
	s, err := New(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		{name: "paper OS geometry", p: Params{Stages: 6, Buckets: 1 << 14}},
		{name: "minimum", p: Params{Stages: 1, Buckets: 2}},
		{name: "zero stages", p: Params{Stages: 0, Buckets: 16}, wantErr: true},
		{name: "non power of two", p: Params{Stages: 4, Buckets: 100}, wantErr: true},
		{name: "one bucket", p: Params{Stages: 4, Buckets: 1}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.p.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() err=%v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

func TestEstimateSingleKey(t *testing.T) {
	s := mustNew(t, Params{Stages: 6, Buckets: 4096}, 1)
	s.Update(42, 100)
	if got := s.Estimate(42); math.Abs(got-100) > 1 {
		t.Errorf("Estimate = %.2f, want ≈100", got)
	}
	// A key that was never updated should estimate near zero.
	if got := s.Estimate(9999); math.Abs(got) > 1 {
		t.Errorf("absent key Estimate = %.2f, want ≈0", got)
	}
}

func TestEstimateHeavyHitterAmongNoise(t *testing.T) {
	s := mustNew(t, Params{Stages: 6, Buckets: 4096}, 2)
	rng := rand.New(rand.NewSource(7))
	// 20k random small flows plus one heavy key.
	for i := 0; i < 20000; i++ {
		s.Update(rng.Uint64(), 1)
	}
	const heavy, weight = uint64(777), int32(5000)
	s.Update(heavy, weight)
	got := s.Estimate(heavy)
	if math.Abs(got-float64(weight)) > float64(weight)/10 {
		t.Errorf("heavy key Estimate = %.1f, want within 10%% of %d", got, weight)
	}
}

func TestEstimateNegativeValues(t *testing.T) {
	// HiFIND records #SYN − #SYN/ACK, which can go negative.
	s := mustNew(t, Params{Stages: 6, Buckets: 4096}, 3)
	s.Update(10, 50)
	s.Update(10, -80)
	if got := s.Estimate(10); math.Abs(got+30) > 1 {
		t.Errorf("Estimate = %.2f, want ≈−30", got)
	}
}

func TestUpdateAccumulatesPerStage(t *testing.T) {
	s := mustNew(t, Params{Stages: 4, Buckets: 64}, 4)
	s.Update(5, 3)
	s.Update(5, 4)
	for stage := 0; stage < 4; stage++ {
		idx := s.BucketIndex(stage, 5)
		if got := s.counts[stage][idx]; got != 7 {
			t.Errorf("stage %d bucket = %d, want 7", stage, got)
		}
	}
	if s.Total() != 7 {
		t.Errorf("Total = %d, want 7", s.Total())
	}
}

func TestCombineIsLinear(t *testing.T) {
	p := Params{Stages: 5, Buckets: 256}
	const seed = 9
	a := mustNew(t, p, seed)
	b := mustNew(t, p, seed)
	ref := mustNew(t, p, seed)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		k, v := rng.Uint64(), int32(rng.Intn(10)+1)
		if i%2 == 0 {
			a.Update(k, v)
			ref.Update(k, 2*v) // coefficient 2 below
		} else {
			b.Update(k, v)
			ref.Update(k, 3*v) // coefficient 3 below
		}
	}
	got, err := Combine([]int32{2, 3}, []*Sketch{a, b})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.counts {
		for j := range got.counts[i] {
			if got.counts[i][j] != ref.counts[i][j] {
				t.Fatalf("combined bucket [%d][%d] = %d, want %d", i, j, got.counts[i][j], ref.counts[i][j])
			}
		}
	}
	if got.Total() != ref.Total() {
		t.Errorf("combined Total = %d, want %d", got.Total(), ref.Total())
	}
}

func TestCombineAggregationEquivalence(t *testing.T) {
	// The multi-router property (paper §3.1): the combined sketch equals
	// the sketch a single router seeing all traffic would build.
	p := Params{Stages: 6, Buckets: 1024}
	const seed = 10
	routers := []*Sketch{mustNew(t, p, seed), mustNew(t, p, seed), mustNew(t, p, seed)}
	single := mustNew(t, p, seed)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		k, v := rng.Uint64()%1000, int32(1)
		routers[rng.Intn(3)].Update(k, v)
		single.Update(k, v)
	}
	agg, err := Combine([]int32{1, 1, 1}, routers)
	if err != nil {
		t.Fatal(err)
	}
	for i := range agg.counts {
		for j := range agg.counts[i] {
			if agg.counts[i][j] != single.counts[i][j] {
				t.Fatal("aggregated sketch differs from single-router sketch")
			}
		}
	}
}

func TestCombineRejectsIncompatible(t *testing.T) {
	a := mustNew(t, Params{Stages: 4, Buckets: 64}, 1)
	b := mustNew(t, Params{Stages: 4, Buckets: 128}, 1)
	if _, err := Combine([]int32{1, 1}, []*Sketch{a, b}); err == nil {
		t.Error("combine of different geometries accepted")
	}
	c := mustNew(t, Params{Stages: 4, Buckets: 64}, 2)
	if _, err := Combine([]int32{1, 1}, []*Sketch{a, c}); err == nil {
		t.Error("combine of different seeds accepted")
	}
	if _, err := Combine([]int32{1}, []*Sketch{a, a}); err == nil {
		t.Error("coefficient count mismatch accepted")
	}
	if _, err := Combine(nil, nil); err == nil {
		t.Error("empty combine accepted")
	}
}

func TestResetClears(t *testing.T) {
	s := mustNew(t, Params{Stages: 3, Buckets: 32}, 5)
	s.Update(1, 10)
	s.Reset()
	if s.Total() != 0 {
		t.Error("Total nonzero after Reset")
	}
	if got := s.Estimate(1); math.Abs(got) > 0.5 {
		t.Errorf("Estimate after Reset = %.2f, want 0", got)
	}
	// Hashing must survive reset so cross-interval estimates stay aligned.
	s2 := mustNew(t, Params{Stages: 3, Buckets: 32}, 5)
	for stage := 0; stage < 3; stage++ {
		if s.BucketIndex(stage, 99) != s2.BucketIndex(stage, 99) {
			t.Error("hashing changed after Reset")
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	s := mustNew(t, Params{Stages: 6, Buckets: 512}, 77)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		s.Update(rng.Uint64(), int32(rng.Intn(21)-10))
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !back.Compatible(s) || back.Total() != s.Total() {
		t.Fatal("round-tripped sketch metadata differs")
	}
	for i := range s.counts {
		for j := range s.counts[i] {
			if s.counts[i][j] != back.counts[i][j] {
				t.Fatal("round-tripped counters differ")
			}
		}
	}
	// The deserialized sketch must remain combinable with the original.
	if _, err := Combine([]int32{1, -1}, []*Sketch{s, &back}); err != nil {
		t.Errorf("combine with deserialized sketch: %v", err)
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	s := mustNew(t, Params{Stages: 2, Buckets: 8}, 1)
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Sketch
	if err := back.UnmarshalBinary(data[:10]); err == nil {
		t.Error("truncated data accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if err := back.UnmarshalBinary(bad); err == nil {
		t.Error("bad magic accepted")
	}
	if err := back.UnmarshalBinary(data[:len(data)-4]); err == nil {
		t.Error("short body accepted")
	}
}

func TestMemoryBytesMatchesPaperBudget(t *testing.T) {
	// Paper §5.1: total recording memory ≈ 13.2 MB. Reconstruct the full
	// HiFIND set here: 2×(6×2^12) + 6×2^16 RS buckets, 3×(6×2^14)
	// verifiers, 6×2^14 OS, 2×(5×2^12×64) 2D buckets, 4 bytes each.
	rs48 := 2 * 6 * (1 << 12)
	rs64 := 6 * (1 << 16)
	verif := 3 * 6 * (1 << 14)
	os := 6 * (1 << 14)
	twoD := 2 * 5 * (1 << 12) * 64
	totalMB := float64((rs48+rs64+verif+os+twoD)*4) / (1 << 20)
	if totalMB < 12 || totalMB > 15 {
		t.Errorf("configured memory %.1f MB, paper says ≈13.2 MB", totalMB)
	}
	s := mustNew(t, Params{Stages: 6, Buckets: 1 << 14}, 1)
	if got := s.MemoryBytes(); got != 6*(1<<14)*4 {
		t.Errorf("MemoryBytes = %d", got)
	}
}

func TestEstimateGridMatchesEstimate(t *testing.T) {
	// Loading the counters into a grid and estimating from the grid must
	// agree with the sketch's own estimator.
	s := mustNew(t, Params{Stages: 6, Buckets: 1024}, 6)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 3000; i++ {
		s.Update(rng.Uint64()%500, 1)
	}
	g := NewGrid(6, 1024)
	if err := g.AddCounts(s.Snapshot(), 1); err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 500; key += 17 {
		a, b := s.Estimate(key), s.EstimateGrid(g, float64(s.Total()), key)
		if math.Abs(a-b) > 1e-6 {
			t.Fatalf("EstimateGrid(%d) = %f, Estimate = %f", key, b, a)
		}
	}
}

func TestMedian(t *testing.T) {
	tests := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{1, 2}, 1.5},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{nil, 0},
	}
	for _, tt := range tests {
		if got := MedianInPlace(append([]float64(nil), tt.in...)); got != tt.want {
			t.Errorf("MedianInPlace(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestEstimateErrorBoundProperty(t *testing.T) {
	// k-ary guarantee (loose form): for random workloads the median
	// estimate error stays within a small multiple of total/K.
	f := func(seed int64) bool {
		s, err := New(Params{Stages: 6, Buckets: 4096}, 11)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 5000; i++ {
			s.Update(rng.Uint64(), 1)
		}
		s.Update(123456, 400)
		est := s.Estimate(123456)
		bound := 8 * float64(s.Total()) / 4096
		return math.Abs(est-400) <= bound+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGridBasics(t *testing.T) {
	g := NewGrid(2, 4)
	if g.Stages() != 2 || g.Buckets() != 4 {
		t.Fatal("grid geometry wrong")
	}
	g[0][1] = 5
	c := g.Clone()
	c[0][1] = 7
	if g[0][1] != 5 {
		t.Error("Clone aliases original")
	}
	if g.Sum(0) != 5 {
		t.Errorf("Sum = %v", g.Sum(0))
	}
	g.Zero()
	if g.Sum(0) != 0 {
		t.Error("Zero did not clear")
	}
	if err := g.AddCounts([][]int32{{1, 2, 3, 4}, {5, 6, 7, 8}}, 2); err != nil {
		t.Fatal(err)
	}
	if g[1][3] != 16 {
		t.Errorf("AddCounts scaled wrong: %v", g[1][3])
	}
	if err := g.AddCounts([][]int32{{1}}, 1); err == nil {
		t.Error("stage mismatch accepted")
	}
	if err := g.AddCounts([][]int32{{1}, {2}}, 1); err == nil {
		t.Error("bucket mismatch accepted")
	}
	var empty Grid
	if empty.Buckets() != 0 {
		t.Error("empty grid Buckets != 0")
	}
}

func TestOccupancy(t *testing.T) {
	s := mustNew(t, Params{Stages: 2, Buckets: 8}, 9)
	if s.Occupancy() != 0 {
		t.Fatalf("empty sketch occupancy = %v", s.Occupancy())
	}
	s.Update(0xBEEF, 5)
	occ := s.Occupancy()
	// One update touches exactly one bucket per stage: 2 of 16 counters.
	if occ != 2.0/16 {
		t.Fatalf("occupancy = %v, want %v", occ, 2.0/16)
	}
	s.Reset()
	if s.Occupancy() != 0 {
		t.Fatalf("occupancy after reset = %v", s.Occupancy())
	}
	var nilS *Sketch
	if nilS.Occupancy() != 0 {
		t.Fatal("nil sketch occupancy must be 0")
	}
}

// TestUnmarshalRejectsOversizedHeader feeds headers whose counter grid
// exceeds the body, including products that wrap int back to the
// header size: each must fail before anything is sized from the header,
// allocating no more than the payload plus an error value.
func TestUnmarshalRejectsOversizedHeader(t *testing.T) {
	header := func(fields ...uint32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, sketchMagic)
		for _, f := range fields {
			b = binary.LittleEndian.AppendUint32(b, f)
		}
		return append(b, make([]byte, 16)...) // seed, total
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"2^31x2^31 wraps to the header size", header(1<<31, 1<<31)},
		{"2^31 stages, one cell of body", append(header(1<<31, 2), 0, 0, 0, 0)},
		{"2^20x2^20, 4 MiB of body", append(header(1<<20, 1<<20), make([]byte, 4<<20)...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s Sketch
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := s.UnmarshalBinary(tc.data)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("oversized header accepted")
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(tc.data))+1024 {
				t.Errorf("allocated %d bytes decoding a %d-byte payload", grew, len(tc.data))
			}
		})
	}
}
