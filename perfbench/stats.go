package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail: a tail
// read from fewer samples is one slow outlier, not a percentile.
const minBeyond = 10

// tailPercentile is the highest percentile of n samples that has at
// least minBeyond samples above it: the sample at ascending index
// n-1-minBeyond sits at percentile 100*(n-minBeyond)/n. ok is false
// when n <= minBeyond; the median stands in then.
func tailPercentile(n int) (p float64, ok bool) {
	if n <= minBeyond {
		return 50, false
	}
	return 100 * float64(n-minBeyond) / float64(n), true
}

// median is the middle sample, or the mean of the middle two (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile is the Harrell–Davis estimate of the p-quantile of xs: a
// mean of all order statistics, weighted by how likely each is to be the
// p-quantile of a sample of len(xs). The latency metrics read it from
// one value per interval, a few dozen intervals of mixed weight; there a
// single order statistic is whichever interval the input puts at that
// rank, and it jumped by a quarter between seeds of one scenario, while
// this estimate moved by about a tenth.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := float64(n+1)*p, float64(n+1)*(1-p)
	est, below := 0.0, 0.0
	for i, x := range s {
		upto := regIncBeta(float64(i+1)/float64(n), a, b)
		est += (upto - below) * x
		below = upto
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b), the
// Beta(a, b) distribution function at x, by the continued fraction of
// Numerical Recipes §6.4 (betacf), evaluated with the modified Lentz
// method.
func regIncBeta(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case x > (a+1)/(a+b+2):
		return 1 - regIncBeta(1-x, b, a)
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	const tiny, eps = 1e-300, 1e-15
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	f := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		for _, num := range [2]float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			f *= c * d
		}
		if math.Abs(c*d-1) < eps {
			break
		}
	}
	return front * f / a
}

// tail summarizes a latency sample set the way every tail metric is
// reported: the percentile chosen by tailPercentile, its quantile
// estimate, and the sample count it was read from.
type tail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"`
}

func tailOf(xs []float64) tail {
	p, _ := tailPercentile(len(xs))
	return tail{Percentile: p, Value: quantile(xs, p/100), Samples: len(xs)}
}

// perIndexMedians takes runs of per-interval samples, one run per pass,
// and returns each interval's median across the passes, so latency
// statistics are read from one value per interval however many passes
// a run fits.
func perIndexMedians(runs [][]float64) []float64 {
	var out []float64
	for i := 0; ; i++ {
		var at []float64
		for _, r := range runs {
			if i < len(r) {
				at = append(at, r[i])
			}
		}
		if len(at) == 0 {
			return out
		}
		out = append(out, median(at))
	}
}

// ratio divides, reporting 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
