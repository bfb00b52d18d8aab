package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, n := range []int{0, 1, 10} {
		if _, ok := tailPercentile(n); ok {
			t.Errorf("n=%d: a tail with fewer than %d samples beyond was accepted", n, minBeyond)
		}
	}
	for _, c := range []struct {
		n int
		p float64
	}{{11, 100.0 / 11}, {20, 50}, {31, 100 * 21.0 / 31}, {100, 90}, {1000, 99}} {
		p, ok := tailPercentile(c.n)
		if !ok || math.Abs(p-c.p) > 1e-9 {
			t.Errorf("n=%d: percentile %v ok=%v, want %v", c.n, p, ok, c.p)
		}
	}
}

// TestTailOfReadsTheRulesPercentile checks that the tail is the
// quantile estimate at the percentile the ten-beyond rule picks.
func TestTailOfReadsTheRulesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{11, 31, 32, 500} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		tl := tailOf(xs)
		p, _ := tailPercentile(n)
		if tl.Percentile != p || tl.Samples != n || tl.Value != quantile(xs, p/100) {
			t.Fatalf("n=%d: tailOf = %+v, want the quantile at p%v of %d samples", n, tl, p, n)
		}
	}
}

func TestTailOfSmallSampleFallsBackToMedian(t *testing.T) {
	tl := tailOf([]float64{5, 1, 3})
	if math.Abs(tl.Value-3) > 1e-12 || tl.Percentile != 50 || tl.Samples != 3 {
		t.Fatalf("tailOf of 3 samples = %+v, want the median 3 at p50", tl)
	}
}

func TestPerIndexMedians(t *testing.T) {
	got := perIndexMedians([][]float64{{1, 10, 7}, {3, 20}, {2, 30, 9}})
	want := []float64{2, 20, 8}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{4}, 4}, {[]float64{4, 1}, 2.5}, {[]float64{9, 1, 5}, 5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestRegIncBeta(t *testing.T) {
	for _, c := range []struct{ x, a, b, want float64 }{
		{0.25, 1, 1, 0.25},         // uniform
		{0.3, 2, 3, 0.3483},        // sum of binomial terms for integer a, b
		{0.5, 21.7, 21.7, 0.5},     // symmetric
		{0.9, 2, 3, 1 - 0.0037},    // upper branch: 1 - I_0.1(3, 2)
		{0, 3, 4, 0}, {1, 3, 4, 1}, // ends
	} {
		if got := regIncBeta(c.x, c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("I_%v(%v, %v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	// Harrell–Davis median of three samples: weights 7/27, 13/27, 7/27.
	if got := quantile([]float64{4, 1, 2}, 0.5); math.Abs(got-61.0/27) > 1e-12 {
		t.Errorf("median estimate of {1, 2, 4} = %v, want 61/27", got)
	}
	if got := quantile([]float64{7, 7, 7, 7}, 0.68); math.Abs(got-7) > 1e-12 {
		t.Errorf("quantile of a constant sample = %v, want 7 (weights must sum to 1)", got)
	}
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 4001)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	last := math.Inf(-1)
	for _, p := range []float64{0.1, 0.5, 0.68, 0.9} {
		got := quantile(xs, p)
		if math.Abs(got-p) > 0.02 || got <= last {
			t.Errorf("quantile(uniform, %v) = %v, want about %v and above %v", p, got, p, last)
		}
		last = got
	}
}
