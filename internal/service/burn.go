package service

import "booterscope/internal/telemetry"

// Multi-window burn-rate evaluation of the detection-latency SLO
// (replacing the raw p99 check the shed ladder originally used). The
// objective is "at most budgetFraction of detections exceed
// TargetP99"; the burn rate is how many times faster than budget the
// error budget is being consumed over a window. Alerting requires
// BOTH a fast window (reacts quickly, noisy alone) and a slow window
// (smooths transients) to burn above burnThreshold — the standard
// multi-window construction, which fires within minutes on a real
// overload but stays quiet through a single slow batch.
//
// Windows are counted in evaluation samples, not wall time, so the
// evaluator is deterministic under test: at the default 1-minute
// Serve cadence fastWindow and slowWindow (5/60) are 5m/1h windows. At
// startup, windows shorter than the configured span use whatever
// history exists — a daemon overloaded from its first minutes still
// breaches.

// burnSample is one cumulative (observations, over-target) reading of
// the detection-latency histogram.
type burnSample struct {
	count uint64
	bad   uint64
}

// burnEvaluator folds periodic histogram readings into fast/slow
// burn rates. It is driven from the single evaluation goroutine (the
// same contract as the shed ladder) and needs no locking.
type burnEvaluator struct {
	// ring holds the last slowWindow+1 cumulative samples; samples
	// before process start read as zero, which is exact (the histogram
	// started empty).
	ring []burnSample
	n    int
	// breached is the current alert state, for edge detection.
	breached bool
}

func newBurnEvaluator() *burnEvaluator {
	return &burnEvaluator{ring: make([]burnSample, slowWindow+1)}
}

// observe folds one cumulative reading and returns the two window
// burn rates, whether the SLO is breaching (both windows over
// threshold), and whether that state just flipped (the event/dump
// edge).
func (b *burnEvaluator) observe(count, bad uint64) (fast, slow float64, breach, edge bool) {
	b.ring[b.n%len(b.ring)] = burnSample{count: count, bad: bad}
	b.n++
	fast = b.burnOver(fastWindow)
	slow = b.burnOver(slowWindow)
	breach = fast >= burnThreshold && slow >= burnThreshold
	edge = breach != b.breached
	b.breached = breach
	return fast, slow, breach, edge
}

// burnOver computes the burn rate over the trailing w samples: the
// fraction of that window's observations over target, divided by the
// error budget. A window with no observations burns nothing.
func (b *burnEvaluator) burnOver(w int) float64 {
	newest := b.ring[(b.n-1)%len(b.ring)]
	var oldest burnSample
	if i := b.n - 1 - w; i >= 0 {
		oldest = b.ring[i%len(b.ring)]
	}
	count := newest.count - oldest.count
	if count == 0 {
		return 0
	}
	badFrac := float64(newest.bad-oldest.bad) / float64(count)
	return badFrac / budgetFraction
}

// badCount extracts the over-target observation count from a
// histogram snapshot: total observations minus those in buckets at or
// under the target. The default TargetP99 (250ms) is an exact
// DefBuckets bound, so the default objective loses nothing to bucket
// quantization.
func badCount(snap telemetry.HistogramSnapshot, targetSeconds float64) uint64 {
	var good uint64
	for _, bk := range snap.Buckets {
		if bk.UpperBound <= targetSeconds {
			good += bk.Count
		}
	}
	return snap.Count - good
}
