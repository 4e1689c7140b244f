// Package stats implements the statistical machinery of the takedown
// analysis: descriptive statistics, the one-tailed Welch unequal-variances
// t-test (the paper's wt30/wt40 metrics), empirical CDFs and histograms
// (Figure 2), and quantiles.
//
// The Student-t CDF is computed from the regularized incomplete beta
// function, evaluated with a Lentz continued fraction — no external math
// dependencies.
package stats

import (
	"errors"
	"math"
	"sort"
)

// errInsufficientData reports a computation that needs more samples.
var errInsufficientData = errors.New("stats: insufficient data")

// mean returns the arithmetic mean of xs (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// variance returns the unbiased sample variance of xs (0 with fewer than
// two samples).
func variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// quantile returns the q-th quantile (0..1) of xs using linear
// interpolation between order statistics. xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return quantile(xs, 0.5) }

// lnBeta returns ln(B(a, b)).
func lnBeta(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}

// regIncBeta computes the regularized incomplete beta function
// I_x(a, b) using the continued fraction expansion (Numerical Recipes
// §6.4, modified Lentz method).
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	front := math.Exp(a*math.Log(x)+b*math.Log(1-x)-lnBeta(a, b)) / a
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x)
	}
	// Use the symmetry relation for faster convergence.
	frontSym := math.Exp(b*math.Log(1-x)+a*math.Log(x)-lnBeta(a, b)) / b
	return 1 - frontSym*betaCF(b, a, 1-x)
}

// betaCF evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		tiny    = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// studentTCDF returns P(T <= t) for a Student-t distribution with df
// degrees of freedom.
func studentTCDF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if t == 0 {
		return 0.5
	}
	x := df / (df + t*t)
	p := 0.5 * regIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// WelchResult reports a Welch unequal-variances t-test.
type WelchResult struct {
	// T is the test statistic (mean(before) - mean(after)) / SE.
	T float64
	// DF is the Welch-Satterthwaite degrees of freedom.
	DF float64
	// P is the one-tailed p-value for H1: mean(before) > mean(after).
	P float64
	// MeanBefore and MeanAfter are the sample means.
	MeanBefore float64
	MeanAfter  float64
}

// Significant reports whether the reduction is significant at alpha.
func (w WelchResult) Significant(alpha float64) bool { return w.P < alpha }

// ReductionRatio returns mean(after)/mean(before) — the paper's
// red30/red40 metric ("average daily packets after the takedown as a
// fraction of before"). It returns +Inf when before is zero but after is
// not, and 1 when both are zero.
func (w WelchResult) ReductionRatio() float64 {
	if w.MeanBefore == 0 {
		if w.MeanAfter == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return w.MeanAfter / w.MeanBefore
}

// WelchOneTailed performs the one-tailed Welch unequal-variances t-test
// for H1: mean(before) > mean(after) — "traffic dropped after the
// takedown". Both samples need at least two observations.
func WelchOneTailed(before, after []float64) (WelchResult, error) {
	if len(before) < 2 || len(after) < 2 {
		return WelchResult{}, errInsufficientData
	}
	m1, m2 := mean(before), mean(after)
	v1, v2 := variance(before), variance(after)
	n1, n2 := float64(len(before)), float64(len(after))
	se2 := v1/n1 + v2/n2
	res := WelchResult{MeanBefore: m1, MeanAfter: m2}
	if se2 == 0 {
		// Degenerate: identical constant samples.
		if m1 > m2 {
			res.T = math.Inf(1)
			res.P = 0
		} else {
			res.T = 0
			res.P = 1
		}
		res.DF = n1 + n2 - 2
		return res, nil
	}
	res.T = (m1 - m2) / math.Sqrt(se2)
	num := se2 * se2
	den := (v1/n1)*(v1/n1)/(n1-1) + (v2/n2)*(v2/n2)/(n2-1)
	res.DF = num / den
	// One-tailed: P(T >= t) under H0.
	res.P = 1 - studentTCDF(res.T, res.DF)
	return res, nil
}

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs (which is copied).
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns P(X <= x).
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(e.sorted, x)
	// Advance past equal values so At is P(X <= x), not P(X < x).
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// Len reports the sample size.
func (e *ECDF) Len() int { return len(e.sorted) }

// Histogram bins values into equal-width buckets over [Min, Max).
type Histogram struct {
	Min, Max float64
	Counts   []uint64
	total    uint64
	// Underflow and Overflow count out-of-range observations.
	Underflow uint64
	Overflow  uint64
}

// NewHistogram builds an empty histogram with the given range and bin
// count.
func NewHistogram(min, max float64, bins int) *Histogram {
	if bins < 1 {
		bins = 1
	}
	return &Histogram{Min: min, Max: max, Counts: make([]uint64, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Min:
		h.Underflow++
	case x >= h.Max:
		h.Overflow++
	default:
		i := int((x - h.Min) / (h.Max - h.Min) * float64(len(h.Counts)))
		if i >= len(h.Counts) {
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Total reports the number of observations, including out-of-range ones.
//
//bsvet:allow deadcode oracle: TestHistogram and TestLandscapeFigure2a check the sample count
func (h *Histogram) Total() uint64 { return h.total }

// Merge folds other into h. Both histograms must share the same range
// and bin count; per-shard histograms merged this way are exactly the
// histogram a single serial pass would have built, in any merge order.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	if other.Min != h.Min || other.Max != h.Max || len(other.Counts) != len(h.Counts) {
		panic("stats: merging histograms with different layouts")
	}
	for i, c := range other.Counts {
		h.Counts[i] += c
	}
	h.total += other.total
	h.Underflow += other.Underflow
	h.Overflow += other.Overflow
}

// PDF returns each bin's fraction of in-range observations.
func (h *Histogram) PDF() []float64 {
	in := h.total - h.Underflow - h.Overflow
	out := make([]float64, len(h.Counts))
	if in == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(in)
	}
	return out
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + w*(float64(i)+0.5)
}

// FractionBelow returns the fraction of in-range observations whose bin
// center lies strictly below x.
func (h *Histogram) FractionBelow(x float64) float64 {
	in := h.total - h.Underflow - h.Overflow
	if in == 0 {
		return 0
	}
	var below uint64
	for i, c := range h.Counts {
		if h.BinCenter(i) < x {
			below += c
		}
	}
	return float64(below) / float64(in)
}
