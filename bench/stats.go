package main

import (
	"math"
	"sort"
)

// summary condenses one metric's samples into the row every artifact
// carries: how many samples, where the middle is, and how wide the
// spread was. A row with N == 1 has no spread; its quartiles equal the
// value.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// summarize computes a summary without disturbing xs.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		N:      len(s),
		Median: quantile(s, 0.50),
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		Min:    s[0],
		Max:    s[len(s)-1],
	}
}

// quantile reads the q-quantile (0..1) off an ascending slice with
// linear interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailPercentile is the highest percentile, capped at p99, that still
// leaves at least ten samples beyond it — a tail read off fewer is one
// scheduler hiccup, not a property of the system. It rises smoothly
// with n (p90 at 100 samples, p95 at 200, p99 from 1000 on), so a run
// that collects a few samples more or fewer reads almost the same
// statistic rather than jumping between two. Below 20 samples nothing
// past the median is supported and 50 is returned.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 50
	}
	return min(99, 100*(1-10/float64(n)))
}

// tailOf returns the supported tail percentile of xs and which
// percentile that was.
func tailOf(xs []float64) (value, pct float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pct = tailPercentile(len(s))
	return quantile(s, pct/100), pct
}

// percentileOf reads one fixed percentile (0..100) off unsorted xs.
func percentileOf(xs []float64, pct float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, pct/100)
}

// median is percentileOf(xs, 50).
func median(xs []float64) float64 { return percentileOf(xs, 50) }

// msOf converts nanosecond samples to milliseconds.
func msOf(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}
