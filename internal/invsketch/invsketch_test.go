package invsketch

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"github.com/hifind/hifind/internal/sketch"
)

func testParams() Params { return Params{KeyBits: 48, Stages: 3, Buckets: 1 << 8} }

func newTestSketch(t *testing.T, p Params, seed uint64) *Sketch {
	t.Helper()
	s, err := New(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDecodeRecoversHeavyKeys: heavy keys planted among light noise come
// back from DecodeCounts with the right magnitudes, and nothing else
// survives verification.
func TestDecodeRecoversHeavyKeys(t *testing.T) {
	p := testParams()
	s := newTestSketch(t, p, 0x5eed)
	keyMask := uint64(1)<<uint(p.KeyBits) - 1
	rng := rand.New(rand.NewSource(7))
	heavy := map[uint64]int32{}
	for len(heavy) < 20 {
		heavy[rng.Uint64()&keyMask] = int32(500 + rng.Intn(500))
	}
	for k, v := range heavy {
		s.Update(k, v)
	}
	for i := 0; i < 2000; i++ {
		s.Update(rng.Uint64()&keyMask, int32(1+rng.Intn(3)))
	}
	got, err := s.DecodeCounts(250, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := map[uint64]float64{}
	for _, ke := range got {
		found[ke.Key] = ke.Estimate
	}
	for k, v := range heavy {
		est, ok := found[k]
		if !ok {
			t.Errorf("heavy key %#x (value %d) not decoded", k, v)
			continue
		}
		// Loose bounds: with 20 heavy keys in 256 buckets the k-ary
		// median occasionally absorbs a heavy-heavy collision.
		if est < float64(v)*0.5 || est > float64(v)*2.5 {
			t.Errorf("key %#x: estimate %.1f far from true value %d", k, est, v)
		}
	}
	for k := range found {
		if _, ok := heavy[k]; !ok {
			t.Errorf("spurious key %#x decoded with estimate %.1f", k, found[k])
		}
	}
}

// TestDecodeOrderingDeterministic: results are sorted by estimate
// descending with key ascending tie-break, and repeated decodes agree.
func TestDecodeOrderingDeterministic(t *testing.T) {
	s := newTestSketch(t, testParams(), 0x0e0e)
	for k := uint64(1); k <= 30; k++ {
		s.Update(k*0x9e3779b9, int32(100*k))
	}
	a, err := s.DecodeCounts(50, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.DecodeCounts(50, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("no keys decoded")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decode not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && (a[i].Estimate > a[i-1].Estimate ||
			(a[i].Estimate == a[i-1].Estimate && a[i].Key <= a[i-1].Key)) {
			t.Fatalf("ordering violated at %d: %+v after %+v", i, a[i], a[i-1])
		}
	}
}

// TestDecodeMaxKeys: the cap keeps the largest estimates.
func TestDecodeMaxKeys(t *testing.T) {
	s := newTestSketch(t, testParams(), 0xcafe)
	for k := uint64(1); k <= 40; k++ {
		s.Update(k<<8, int32(100+10*k))
	}
	all, err := s.DecodeCounts(50, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := s.DecodeCounts(50, DecodeOptions{MaxKeys: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 5 {
		t.Fatalf("MaxKeys 5 returned %d keys", len(capped))
	}
	for i := range capped {
		if capped[i] != all[i] {
			t.Fatalf("capped result %d = %+v, want prefix of full result %+v", i, capped[i], all[i])
		}
	}
}

// TestDecodeVerifyCallback: the Verify hook rejects before MaxKeys
// truncation, mirroring revsketch.InferenceOptions semantics.
func TestDecodeVerifyCallback(t *testing.T) {
	s := newTestSketch(t, testParams(), 0xbead)
	s.Update(0x111111, 500)
	s.Update(0x222222, 400)
	got, err := s.DecodeCounts(100, DecodeOptions{
		Verify: func(key uint64, _ float64) bool { return key != 0x111111 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Key != 0x222222 {
		t.Fatalf("verify filter: got %+v, want only key 0x222222", got)
	}
}

// TestWeightedUpdateEquivalence: Update(k, v·c) ≡ c repeated
// Update(k, v), byte-for-byte — the linearity the recorder's O(1)
// NetFlow replay and the EWMA layer both rely on, now covering the
// folded key material too.
func TestWeightedUpdateEquivalence(t *testing.T) {
	p := testParams()
	rng := rand.New(rand.NewSource(44))
	counts := []int32{0, 1, 2, 3, 17, 100}
	values := []int32{-3, -1, 1, 2, 5}
	keyMask := uint64(1)<<uint(p.KeyBits) - 1
	weighted := newTestSketch(t, p, 0x5eed)
	repeated := newTestSketch(t, p, 0x5eed)
	for i := 0; i < 200; i++ {
		k := rng.Uint64() & keyMask
		v := values[rng.Intn(len(values))]
		c := counts[rng.Intn(len(counts))]
		weighted.Update(k, v*c)
		for j := int32(0); j < c; j++ {
			repeated.Update(k, v)
		}
	}
	wb, _ := weighted.MarshalBinary()
	rb, _ := repeated.MarshalBinary()
	if !bytes.Equal(wb, rb) {
		t.Fatal("weighted and repeated update state diverged")
	}
}

// TestPlanUpdateEquivalence: FillPlan+UpdateAt writes exactly the
// buckets and fields Update writes.
func TestPlanUpdateEquivalence(t *testing.T) {
	p := testParams()
	direct := newTestSketch(t, p, 0x1234)
	planned := newTestSketch(t, p, 0x1234)
	plan := planned.NewPlan()
	keyMask := uint64(1)<<uint(p.KeyBits) - 1
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		k := rng.Uint64() & keyMask
		v := int32(rng.Intn(9) - 4)
		direct.Update(k, v)
		planned.FillPlan(k, sketch.PowersOf(k), plan)
		planned.UpdateAt(plan, v)
	}
	db, _ := direct.MarshalBinary()
	pb, _ := planned.MarshalBinary()
	if !bytes.Equal(db, pb) {
		t.Fatal("planned update state diverged from direct Update")
	}
}

// TestCombineLinearity: COMBINE of per-router shards equals the sketch
// of the union stream, and the combined sketch decodes keys that are
// only heavy in aggregate — the multi-router detection property.
func TestCombineLinearity(t *testing.T) {
	p := testParams()
	union := newTestSketch(t, p, 0x77)
	shards := make([]*Sketch, 3)
	for i := range shards {
		shards[i] = newTestSketch(t, p, 0x77)
	}
	keyMask := uint64(1)<<uint(p.KeyBits) - 1
	rng := rand.New(rand.NewSource(99))
	heavyKey := uint64(0xabcdef012345) & keyMask
	for i := 0; i < 900; i++ {
		k := rng.Uint64() & keyMask
		v := int32(1 + rng.Intn(4))
		union.Update(k, v)
		shards[i%3].Update(k, v)
	}
	// Spread one key so each shard holds a sub-threshold share.
	for i := range shards {
		union.Update(heavyKey, 200)
		shards[i].Update(heavyKey, 200)
	}
	combined, err := Combine([]int32{1, 1, 1}, shards)
	if err != nil {
		t.Fatal(err)
	}
	ub, _ := union.MarshalBinary()
	cb, _ := combined.MarshalBinary()
	if !bytes.Equal(ub, cb) {
		t.Fatal("COMBINE of shards diverged from union-stream sketch")
	}
	got, err := combined.DecodeCounts(400, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ke := range got {
		if ke.Key == heavyKey {
			return
		}
	}
	t.Fatalf("aggregate-heavy key %#x not decoded from combined sketch (got %v)", heavyKey, got)
}

// TestCombineRejectsIncompatible: differing seed or geometry fails.
func TestCombineRejectsIncompatible(t *testing.T) {
	a := newTestSketch(t, testParams(), 1)
	b := newTestSketch(t, testParams(), 2)
	if _, err := Combine([]int32{1, 1}, []*Sketch{a, b}); err == nil {
		t.Fatal("combine across seeds succeeded")
	}
	p2 := testParams()
	p2.Buckets <<= 1
	c := newTestSketch(t, p2, 1)
	if _, err := Combine([]int32{1, 1}, []*Sketch{a, c}); err == nil {
		t.Fatal("combine across geometries succeeded")
	}
}

// TestMarshalRoundTrip: serialize → deserialize → identical bytes and
// identical decode output.
func TestMarshalRoundTrip(t *testing.T) {
	s := newTestSketch(t, testParams(), 0xfeed)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		s.Update(rng.Uint64()&0xffffffffffff, int32(rng.Intn(7)-2))
	}
	s.Update(0x424242, 1000)
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var loaded Sketch
	if err := loaded.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	data2, err := loaded.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("marshal round trip not byte-identical")
	}
	if loaded.Total() != s.Total() {
		t.Fatalf("total %d != %d after round trip", loaded.Total(), s.Total())
	}
	got, err := loaded.DecodeCounts(500, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Key != 0x424242 {
		t.Fatalf("decode after round trip: %v", got)
	}
}

// TestUnmarshalRejectsGarbage covers the validation paths.
func TestUnmarshalRejectsGarbage(t *testing.T) {
	var s Sketch
	if err := s.UnmarshalBinary(nil); err == nil {
		t.Error("nil input accepted")
	}
	if err := s.UnmarshalBinary(make([]byte, 40)); err == nil {
		t.Error("zero magic accepted")
	}
	good := newTestSketch(t, testParams(), 9)
	data, _ := good.MarshalBinary()
	if err := s.UnmarshalBinary(data[:len(data)-1]); err == nil {
		t.Error("truncated body accepted")
	}
}

// TestResetAndOccupancy: occupancy rises with traffic and Reset clears
// counters but keeps hashing (same keys land in the same buckets).
func TestResetAndOccupancy(t *testing.T) {
	s := newTestSketch(t, testParams(), 0x11)
	if occ := s.Occupancy(); occ != 0 {
		t.Fatalf("fresh occupancy %v", occ)
	}
	b0 := s.BucketIndex(0, 12345)
	s.Update(12345, 10)
	if occ := s.Occupancy(); occ <= 0 {
		t.Fatalf("occupancy %v after update", occ)
	}
	s.Reset()
	if occ := s.Occupancy(); occ != 0 {
		t.Fatalf("occupancy %v after reset", occ)
	}
	if s.Total() != 0 {
		t.Fatalf("total %d after reset", s.Total())
	}
	if s.BucketIndex(0, 12345) != b0 {
		t.Fatal("hashing changed across Reset")
	}
	var nilS *Sketch
	if occ := nilS.Occupancy(); occ != 0 {
		t.Fatalf("nil occupancy %v", occ)
	}
}

// TestValidate covers the parameter guards.
func TestValidate(t *testing.T) {
	bad := []Params{
		{KeyBits: 0, Stages: 3, Buckets: 256},
		{KeyBits: 65, Stages: 3, Buckets: 256},
		{KeyBits: 48, Stages: 0, Buckets: 256},
		{KeyBits: 48, Stages: 16, Buckets: 256},
		{KeyBits: 48, Stages: 3, Buckets: 0},
		{KeyBits: 48, Stages: 3, Buckets: 100},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %+v validated", p)
		}
	}
	if err := Params48().Validate(); err != nil {
		t.Errorf("Params48: %v", err)
	}
	if err := Params64().Validate(); err != nil {
		t.Errorf("Params64: %v", err)
	}
}

// TestDecodeGridGeometryMismatch: wrong-shaped grids and non-positive
// thresholds are rejected.
func TestDecodeGridGeometryMismatch(t *testing.T) {
	s := newTestSketch(t, testParams(), 0x21)
	if _, err := s.Decode(sketch.NewGrid(2, 10), 1, DecodeOptions{}); err == nil {
		t.Error("mismatched grid accepted")
	}
	g := sketch.NewGrid(s.params.Stages, s.params.Buckets*s.params.Fields())
	if _, err := s.Decode(g, 0, DecodeOptions{}); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := s.Decode(g, 1, DecodeOptions{}); err != nil {
		t.Errorf("valid decode rejected: %v", err)
	}
}

// Per-packet operations may not allocate (hotpath-alloc lint contract).

func TestUpdateAllocs(t *testing.T) {
	s := newTestSketch(t, testParams(), 42)
	var key uint64
	allocs := testing.AllocsPerRun(1000, func() {
		s.Update(key, 1)
		key++
	})
	if allocs != 0 {
		t.Errorf("Update allocates %v times per call, want 0", allocs)
	}
}

func TestFillPlanUpdateAtAllocs(t *testing.T) {
	s := newTestSketch(t, testParams(), 42)
	plan := s.NewPlan()
	var key uint64
	allocs := testing.AllocsPerRun(1000, func() {
		s.FillPlan(key, sketch.PowersOf(key), plan)
		s.UpdateAt(plan, 1)
		key++
	})
	if allocs != 0 {
		t.Errorf("FillPlan+UpdateAt allocates %v times per call, want 0", allocs)
	}
}

func TestEstimateAllocs(t *testing.T) {
	s := newTestSketch(t, testParams(), 42)
	for k := uint64(0); k < 100; k++ {
		s.Update(k, int32(k%5)+1)
	}
	var key uint64
	allocs := testing.AllocsPerRun(1000, func() {
		_ = s.Estimate(key)
		key++
	})
	if allocs != 0 {
		t.Errorf("Estimate allocates %v times per call, want 0", allocs)
	}
}

// TestUnmarshalRejectsOversizedHeader feeds headers whose counter grid
// exceeds the body, including products that wrap int back to the
// header size: each must fail before anything is sized from the header,
// allocating no more than the payload plus an error value.
func TestUnmarshalRejectsOversizedHeader(t *testing.T) {
	header := func(fields ...uint32) []byte { // KeyBits, Stages, Buckets
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
		{"2^31x2^31", header(64, 1<<31, 1<<31)},
		{"15x2^31, no body", header(64, 15, 1<<31)},
		{"15x2^31, 4 MiB of body", append(header(64, 15, 1<<31), make([]byte, 4<<20)...)},
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
