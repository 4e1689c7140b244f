package stats

import (
	"math"
	"sort"
)

// MannWhitneyResult reports a one-tailed Mann-Whitney U test.
type MannWhitneyResult struct {
	// U is the test statistic of the first sample.
	U float64
	// Z is the normal-approximation score (tie-corrected).
	Z float64
	// P is the one-tailed p-value for H1: before stochastically larger
	// than after.
	P float64
}

// Significant reports significance at alpha.
func (m MannWhitneyResult) Significant(alpha float64) bool { return m.P < alpha }

// MannWhitneyOneTailed performs the one-tailed Mann-Whitney U test for
// H1: values in before tend to be larger than values in after. It is the
// non-parametric robustness companion to WelchOneTailed: daily packet
// sums are heavy-tailed, and an analysis that only holds under the
// t-test's normality leniency would be fragile.
//
// The p-value uses the normal approximation with tie correction and a
// continuity correction — accurate for the study's window sizes
// (n >= 30).
func MannWhitneyOneTailed(before, after []float64) (MannWhitneyResult, error) {
	n1, n2 := len(before), len(after)
	if n1 < 2 || n2 < 2 {
		return MannWhitneyResult{}, errInsufficientData
	}
	type obs struct {
		v     float64
		first bool
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range before {
		all = append(all, obs{v, true})
	}
	for _, v := range after {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Assign mid-ranks, accumulating the tie correction term.
	ranks := make([]float64, len(all))
	var tieTerm float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	var r1 float64
	for i, o := range all {
		if o.first {
			r1 += ranks[i]
		}
	}
	fn1, fn2 := float64(n1), float64(n2)
	u1 := r1 - fn1*(fn1+1)/2
	mean := fn1 * fn2 / 2
	n := fn1 + fn2
	variance := fn1 * fn2 / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	res := MannWhitneyResult{U: u1}
	if variance <= 0 {
		// All values identical: no evidence either way.
		res.P = 1
		return res, nil
	}
	// One-tailed: H1 says before > after, i.e. U1 large. Continuity
	// correction of 0.5 toward the mean.
	res.Z = (u1 - mean - 0.5) / math.Sqrt(variance)
	res.P = 1 - normCDF(res.Z)
	return res, nil
}

// normCDF is the standard normal CDF.
func normCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}
