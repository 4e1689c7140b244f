// Package timeseries provides the time-binned counters the takedown
// analysis runs on: daily and hourly series of packet counts, window
// extraction around an event date, and the paper's wt30/wt40 (Welch test
// significance) and red30/red40 (reduction ratio) metrics.
package timeseries

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"booterscope/internal/stats"
)

// errEmptyWindow reports a window that contains no days.
var errEmptyWindow = errors.New("timeseries: empty window")

// Series accumulates a value per time bin. The zero value is unusable;
// construct with newSeries.
type Series struct {
	binSize time.Duration
	bins    map[int64]float64
}

// NewDaily returns a series binned by UTC day.
func NewDaily() *Series { return newSeries(24 * time.Hour) }

// newSeries returns a series with the given bin size.
func newSeries(binSize time.Duration) *Series {
	return &Series{binSize: binSize, bins: make(map[int64]float64)}
}

// Add accumulates v into the bin containing ts.
func (s *Series) Add(ts time.Time, v float64) {
	s.bins[ts.UTC().Truncate(s.binSize).Unix()] += v
}

// At returns the value of the bin containing ts (0 if empty).
//
//bsvet:allow deadcode oracle: TestHourlySeries and TestLandscapeFigure2bc read single bins
func (s *Series) At(ts time.Time) float64 {
	return s.bins[ts.UTC().Truncate(s.binSize).Unix()]
}

// Len reports the number of non-empty bins.
func (s *Series) Len() int { return len(s.bins) }

// Merge folds other into s bin by bin. Counters in this repository are
// integer-valued float64s well below 2^53, so merging per-shard series
// is exact and order-independent — a sharded pass sums to the same
// bins as a serial one. Both series must share a bin size.
func (s *Series) Merge(other *Series) {
	if other == nil {
		return
	}
	if other.binSize != s.binSize {
		panic(fmt.Sprintf("timeseries: merging bin size %v into %v", other.binSize, s.binSize))
	}
	for k, v := range other.bins {
		s.bins[k] += v
	}
}

// Point is one (time, value) sample.
type Point struct {
	Time  time.Time
	Value float64
}

// Points returns the series in chronological order. Bins between the
// first and last observation that received no data appear with value 0,
// so day gaps do not silently shrink test windows.
func (s *Series) Points() []Point {
	if len(s.bins) == 0 {
		return nil
	}
	keys := make([]int64, 0, len(s.bins))
	for k := range s.bins {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	step := int64(s.binSize / time.Second)
	var out []Point
	for k := keys[0]; k <= keys[len(keys)-1]; k += step {
		out = append(out, Point{Time: time.Unix(k, 0).UTC(), Value: s.bins[k]})
	}
	return out
}

// window returns the bin values in [from, to) in chronological order,
// including zero bins.
func (s *Series) window(from, to time.Time) []float64 {
	fromBin := from.UTC().Truncate(s.binSize).Unix()
	toBin := to.UTC().Truncate(s.binSize).Unix()
	step := int64(s.binSize / time.Second)
	var out []float64
	for k := fromBin; k < toBin; k += step {
		out = append(out, s.bins[k])
	}
	return out
}

// Sum returns the total over all bins.
func (s *Series) Sum() float64 {
	var total float64
	for _, v := range s.bins {
		total += v
	}
	return total
}

// EventAnalysis holds the before/after comparison of a series around an
// event for one window size, mirroring the paper's per-panel annotations
// in Figures 4 and 5.
type EventAnalysis struct {
	// WindowDays is the window half-width (30 or 40 in the paper).
	WindowDays int
	// Welch is the one-tailed Welch test for a reduction.
	Welch stats.WelchResult
	// Significant is the wtN metric at p = 0.05.
	Significant bool
	// Reduction is the redN metric: daily mean after / daily mean before.
	Reduction float64
}

// String formats the analysis the way the paper annotates its panels.
func (a EventAnalysis) String() string {
	return fmt.Sprintf("wt%d sign. (p=0.05): %t, red%d: %.2f%%",
		a.WindowDays, a.Significant, a.WindowDays, a.Reduction*100)
}

// Alpha is the significance level of the study's Welch tests.
const Alpha = 0.05

// AnalyzeEvent compares the windowDays bins before the event against the
// windowDays bins after it. The event day itself belongs to the "after"
// window, matching a takedown that becomes effective on its announcement
// day.
func AnalyzeEvent(s *Series, event time.Time, windowDays int) (EventAnalysis, error) {
	if windowDays <= 0 {
		return EventAnalysis{}, errEmptyWindow
	}
	day := event.UTC().Truncate(s.binSize)
	window := s.binSize * time.Duration(windowDays)
	before := s.window(day.Add(-window), day)
	after := s.window(day, day.Add(window))
	if len(before) < 2 || len(after) < 2 {
		return EventAnalysis{}, errEmptyWindow
	}
	welch, err := stats.WelchOneTailed(before, after)
	if err != nil {
		return EventAnalysis{}, err
	}
	return EventAnalysis{
		WindowDays:  windowDays,
		Welch:       welch,
		Significant: welch.Significant(Alpha),
		Reduction:   welch.ReductionRatio(),
	}, nil
}

// AnalyzeEventRank runs the non-parametric companion of AnalyzeEvent:
// a one-tailed Mann-Whitney U test over the same ±windowDays windows.
// Used as a robustness check — daily packet sums are heavy-tailed, and
// conclusions that only hold under the t-test would be fragile.
func AnalyzeEventRank(s *Series, event time.Time, windowDays int) (stats.MannWhitneyResult, error) {
	if windowDays <= 0 {
		return stats.MannWhitneyResult{}, errEmptyWindow
	}
	day := event.UTC().Truncate(s.binSize)
	window := s.binSize * time.Duration(windowDays)
	before := s.window(day.Add(-window), day)
	after := s.window(day, day.Add(window))
	if len(before) < 2 || len(after) < 2 {
		return stats.MannWhitneyResult{}, errEmptyWindow
	}
	return stats.MannWhitneyOneTailed(before, after)
}

// TakedownMetrics bundles the paper's four headline numbers for one
// traffic series: wt30, wt40, red30, red40.
type TakedownMetrics struct {
	WT30  EventAnalysis
	WT40  EventAnalysis
	Label string
}

// String formats both windows on one line.
func (m TakedownMetrics) String() string {
	return fmt.Sprintf("%s: %v; %v", m.Label, m.WT30, m.WT40)
}

// AnalyzeTakedown computes the ±30 and ±40 day metrics for a daily
// series around the event.
func AnalyzeTakedown(s *Series, event time.Time, label string) (TakedownMetrics, error) {
	wt30, err := AnalyzeEvent(s, event, 30)
	if err != nil {
		return TakedownMetrics{}, fmt.Errorf("timeseries: 30-day window: %w", err)
	}
	wt40, err := AnalyzeEvent(s, event, 40)
	if err != nil {
		return TakedownMetrics{}, fmt.Errorf("timeseries: 40-day window: %w", err)
	}
	return TakedownMetrics{WT30: wt30, WT40: wt40, Label: label}, nil
}
