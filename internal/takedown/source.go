package takedown

import (
	"time"

	"booterscope/internal/pipe"
	"booterscope/internal/trafficgen"
)

// Source streams flow records in batches to a visitor. It is the seam
// between the takedown analyses and where the records come from: a
// flowstore archive replayed with ScanBatches, a collector, or (in
// tests) the live traffic generator. Every aggregation below is
// order-insensitive — integer-valued daily sums and per-key maps — so
// any delivery order over the same record multiset yields identical
// results; that is the replay-equals-live guarantee the flowstore
// relies on, and what lets the same Source drive a sharded pipeline.
//
// Source has the same shape as pipe.Source: ownership of each emitted
// batch passes to emit, and an error returned by emit must be
// propagated immediately — that is how early exit and cancellation
// reach the producer.
type Source func(emit func(*pipe.Batch) error) error

// Window bounds an analysis: the day grid records are binned onto and
// the event date tested against it.
type Window struct {
	// Start is the first day of the window (UTC midnight).
	Start time.Time
	// Days is the window length in days.
	Days int
	// Takedown is the event date for the before/after split.
	Takedown time.Time
}

// WindowOf extracts the analysis window from a scenario config.
func WindowOf(cfg trafficgen.Config) Window {
	return Window{Start: cfg.Start, Days: cfg.Days, Takedown: cfg.Takedown}
}

// dayTime maps a record start time onto its window day. Trigger records
// never cross midnight, so this reproduces the generator's day binning
// exactly when replaying from an archive.
func (w Window) dayTime(t time.Time) time.Time {
	const day = 24 * time.Hour
	return w.Start.Add(t.Sub(w.Start) / day * day)
}

// dayTimeSec is DayTime from whole seconds only. For records at or
// after the (whole-second) window start, sub-second precision cannot
// move the day bin — the distance to the next day boundary is always a
// whole number of seconds — so columnar consumers can bin on the start
// seconds column and skip decoding nanoseconds.
func (w Window) dayTimeSec(sec int64) time.Time {
	const day = 24 * time.Hour
	return w.Start.Add(time.Unix(sec, 0).Sub(w.Start) / day * day)
}

// dayTimes enumerates the window's day grid.
func (w Window) dayTimes() []time.Time {
	out := make([]time.Time, w.Days)
	for i := range out {
		out[i] = w.Start.Add(time.Duration(i) * 24 * time.Hour)
	}
	return out
}
