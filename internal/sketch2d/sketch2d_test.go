package sketch2d

import (
	"encoding/binary"
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

func testParams() Params { return Params{Stages: 5, XBuckets: 1 << 10, YBuckets: 64} }

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		{name: "paper geometry", p: PaperParams()},
		{name: "zero stages", p: Params{Stages: 0, XBuckets: 16, YBuckets: 16}, wantErr: true},
		{name: "x not power of two", p: Params{Stages: 2, XBuckets: 100, YBuckets: 16}, wantErr: true},
		{name: "y not power of two", p: Params{Stages: 2, XBuckets: 16, YBuckets: 100}, wantErr: true},
		{name: "y one bucket", p: Params{Stages: 2, XBuckets: 16, YBuckets: 1}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() err=%v wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

func TestUpdateAndColumn(t *testing.T) {
	s := mustNew(t, testParams(), 1)
	const x = uint64(42)
	s.Update(x, 80, 10)
	s.Update(x, 80, 5)
	s.Update(x, 443, 3)
	for stage := 0; stage < 5; stage++ {
		col := s.Column(stage, x)
		var sum int32
		for _, v := range col {
			sum += v
		}
		if sum != 18 {
			t.Errorf("stage %d column mass = %d, want 18", stage, sum)
		}
	}
	if s.Total() != 18 {
		t.Errorf("Total = %d", s.Total())
	}
}

func TestConcentratedDetectsSYNFlooding(t *testing.T) {
	// SYN flood: one {SIP,DIP} pair hammers a single destination port.
	s := mustNew(t, testParams(), 2)
	const victim = uint64(0x0a000001c0a80102)
	for i := 0; i < 500; i++ {
		s.Update(victim, 80, 1) // all SYNs to port 80
	}
	res := s.Concentrated(victim, 5, 0.8)
	if !res.Concentrated {
		t.Errorf("flood column not concentrated: %+v", res)
	}
}

func TestConcentratedRejectsVerticalScan(t *testing.T) {
	// Vertical scan: same pair touches many distinct ports once or twice.
	s := mustNew(t, testParams(), 3)
	const scanner = uint64(0x0a000001c0a80102)
	for port := uint64(1); port <= 500; port++ {
		s.Update(scanner, port, 1)
	}
	res := s.Concentrated(scanner, 5, 0.8)
	if res.Concentrated {
		t.Errorf("vertical scan column wrongly concentrated: %+v", res)
	}
}

func TestConcentratedBimodalSeparation(t *testing.T) {
	// The paper's Figure 4 claim: floods and scans form two modes that the
	// top-p test separates even when both share the sketch with background.
	s := mustNew(t, testParams(), 4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ { // background: random pairs, random ports
		s.Update(rng.Uint64(), uint64(rng.Intn(65536)), 1)
	}
	floods := make([]uint64, 20)
	scans := make([]uint64, 20)
	for i := range floods {
		floods[i] = rng.Uint64()
		for n := 0; n < 300; n++ {
			s.Update(floods[i], 80, 1)
		}
	}
	for i := range scans {
		scans[i] = rng.Uint64()
		for port := uint64(1000); port < 1300; port++ {
			s.Update(scans[i], port, 1)
		}
	}
	for _, f := range floods {
		if !s.Concentrated(f, 5, 0.8).Concentrated {
			t.Errorf("flood %#x misclassified as scan", f)
		}
	}
	for _, sc := range scans {
		if s.Concentrated(sc, 5, 0.8).Concentrated {
			t.Errorf("scan %#x misclassified as flood", sc)
		}
	}
}

func TestConcentratedIgnoresNegativeMass(t *testing.T) {
	// #SYN−#SYN/ACK columns can hold negative noise from completed flows
	// of other x-keys aliasing into the same column.
	s := mustNew(t, testParams(), 5)
	const key = uint64(7)
	for i := 0; i < 100; i++ {
		s.Update(key, 22, 1)
	}
	// Unrelated well-behaved traffic drives some buckets negative.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		s.Update(rng.Uint64(), uint64(rng.Intn(65536)), -1)
	}
	res := s.Concentrated(key, 5, 0.8)
	if !res.Concentrated {
		t.Errorf("negative noise broke concentration: %+v", res)
	}
}

func TestConcentratedEmptyColumn(t *testing.T) {
	s := mustNew(t, testParams(), 6)
	res := s.Concentrated(12345, 5, 0.8)
	if res.Concentrated || res.Stages != 0 {
		t.Errorf("empty sketch should not vote: %+v", res)
	}
}

func TestConcentratedClampsP(t *testing.T) {
	s := mustNew(t, testParams(), 7)
	s.Update(1, 80, 100)
	if got := s.Concentrated(1, 0, 0.8); !got.Concentrated {
		t.Error("p clamped to 1 should still classify a single-port flood")
	}
	// p larger than the column covers everything ⇒ trivially concentrated.
	if got := s.Concentrated(1, 10000, 0.8); !got.Concentrated {
		t.Error("p=Ky should be concentrated for any nonempty column")
	}
}

func TestDistinctYEstimate(t *testing.T) {
	s := mustNew(t, testParams(), 8)
	const flood, scan = uint64(1), uint64(2)
	for i := 0; i < 200; i++ {
		s.Update(flood, 80, 1)
	}
	for port := uint64(0); port < 40; port++ {
		s.Update(scan, port*97, 1)
	}
	if got := s.DistinctYEstimate(flood, 1); got > 3 {
		t.Errorf("flood distinct-port estimate %d, want ≤3", got)
	}
	got := s.DistinctYEstimate(scan, 1)
	if got < 20 || got > 45 {
		t.Errorf("scan distinct-port estimate %d, want ≈40 (≤64 buckets)", got)
	}
}

func TestCombineMatchesSingleSketch(t *testing.T) {
	p := testParams()
	const seed = 9
	a, b := mustNew(t, p, seed), mustNew(t, p, seed)
	single := mustNew(t, p, seed)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		x, y, v := rng.Uint64(), rng.Uint64(), int32(rng.Intn(3)+1)
		if i%2 == 0 {
			a.Update(x, y, v)
		} else {
			b.Update(x, y, v)
		}
		single.Update(x, y, v)
	}
	agg, err := Combine([]int32{1, 1}, []*Sketch{a, b})
	if err != nil {
		t.Fatal(err)
	}
	for j := range agg.counts {
		for i := range agg.counts[j] {
			if agg.counts[j][i] != single.counts[j][i] {
				t.Fatal("combined 2D sketch differs from single-router sketch")
			}
		}
	}
	if agg.Total() != single.Total() {
		t.Error("combined total differs")
	}
}

func TestCombineRejectsIncompatible(t *testing.T) {
	a := mustNew(t, testParams(), 1)
	b := mustNew(t, testParams(), 2)
	if _, err := Combine([]int32{1, 1}, []*Sketch{a, b}); err == nil {
		t.Error("different seeds accepted")
	}
	if _, err := Combine([]int32{1}, []*Sketch{a, a}); err == nil {
		t.Error("coefficient mismatch accepted")
	}
	if _, err := Combine(nil, nil); err == nil {
		t.Error("empty combine accepted")
	}
}

func TestResetClears(t *testing.T) {
	s := mustNew(t, testParams(), 10)
	s.Update(1, 2, 50)
	s.Reset()
	if s.Total() != 0 {
		t.Error("Total nonzero after Reset")
	}
	for _, v := range s.Column(0, 1) {
		if v != 0 {
			t.Fatal("column not cleared")
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	s := mustNew(t, Params{Stages: 3, XBuckets: 64, YBuckets: 16}, 11)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		s.Update(rng.Uint64(), rng.Uint64(), int32(rng.Intn(11)-5))
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
		t.Fatal("metadata differs")
	}
	for j := range s.counts {
		for i := range s.counts[j] {
			if s.counts[j][i] != back.counts[j][i] {
				t.Fatal("counters differ")
			}
		}
	}
	var corrupt Sketch
	if err := corrupt.UnmarshalBinary(data[:16]); err == nil {
		t.Error("truncated accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 1
	if err := corrupt.UnmarshalBinary(bad); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestMemoryBytes(t *testing.T) {
	s := mustNew(t, PaperParams(), 1)
	if got := s.MemoryBytes(); got != 5*(1<<12)*64*4 {
		t.Errorf("MemoryBytes = %d", got)
	}
}

func TestTopSum(t *testing.T) {
	tests := []struct {
		col  []float64
		p    int
		want float64
	}{
		{[]float64{5, 1, 3, 2}, 2, 8},
		{[]float64{5, 1, 3, 2}, 10, 11},
		{[]float64{-5, 2, -1}, 2, 2},
		{nil, 3, 0},
		{[]float64{7}, 1, 7},
		{[]float64{1, 2, 3, 4, 5, 6}, 3, 15},
	}
	for _, tt := range tests {
		if got := topSum(tt.col, tt.p); got != tt.want {
			t.Errorf("topSum(%v,%d) = %v, want %v", tt.col, tt.p, got, tt.want)
		}
	}
}

func TestColumnStableUnderSeed(t *testing.T) {
	f := func(x, y uint64, v int16) bool {
		a := mustNewQuick(testParams(), 42)
		b := mustNewQuick(testParams(), 42)
		a.Update(x, y, int32(v))
		b.Update(x, y, int32(v))
		for stage := 0; stage < 5; stage++ {
			ca, cb := a.Column(stage, x), b.Column(stage, x)
			for i := range ca {
				if ca[i] != cb[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func mustNewQuick(p Params, seed uint64) *Sketch {
	s, err := New(p, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// TestUnmarshalRejectsOversizedHeader feeds headers whose counter grid
// exceeds the body, including products that wrap int back to the
// header size: each must fail before anything is sized from the header,
// allocating no more than the payload plus an error value.
func TestUnmarshalRejectsOversizedHeader(t *testing.T) {
	header := func(fields ...uint32) []byte { // Stages, XBuckets, YBuckets
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
		{"2^31x2^31 wraps to the header size", header(1, 1<<31, 1<<31)},
		{"2^31x2^31x2^31 wraps to the header size", header(1<<31, 1<<31, 1<<31)},
		{"2^10x2^10x2^10, 4 MiB of body", append(header(1<<10, 1<<10, 1<<10), make([]byte, 4<<20)...)},
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
