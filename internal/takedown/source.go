package takedown

import (
	"math"
	"time"

	"booterscope/internal/pipe"
	"booterscope/internal/trafficgen"
)

// Source streams flow records in batches to a visitor: the live
// traffic generator in tests and benchmarks, or anything else that
// produces one stream. Every aggregation below is order-insensitive —
// integer-valued daily sums and per-key maps — so any delivery order
// over the same record multiset yields identical results; that is the
// replay-equals-live guarantee the flowstore relies on.
//
// Ownership of each emitted batch passes to emit, and an error
// returned by emit must be propagated immediately — that is how early
// exit and cancellation reach the producer.
type Source func(emit func(*pipe.Batch) error) error

// Scanner hands a record stream to at most workers workers as
// columnar batches: Scan calls emit(w, b) with w in [0, workers) and
// b.Cols set, never concurrently for one w, passing ownership of b. It
// returns the first error, from emit or from reading, once every worker
// has stopped. A flowstore archive is scanned by whole time partitions
// (core's replay); a Source is a Scanner too.
type Scanner interface {
	Scan(workers int, emit func(w int, b *pipe.Batch) error) error
}

// Scan implements Scanner on the caller's goroutine, as worker 0
// whatever workers says. It is the one place a row batch meets the
// analyses: its records are transposed into a pooled columnar slab
// attached to the batch (pipe.Batch.Columnar), so every stage reads
// columns only. The first emit error stops the source.
func (src Source) Scan(_ int, emit func(w int, b *pipe.Batch) error) error {
	return src(func(b *pipe.Batch) error {
		b.Columnar()
		return emit(0, b)
	})
}

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

// dayTimeSec maps a record's whole start second onto its window day:
// Start plus the whole days from Start to sec, truncated toward zero.
// Binning by the start second means a record's sub-second part never
// moves its day, and the trigger stage skips decoding nanoseconds.
// Trigger records never cross midnight, so this reproduces the
// generator's day binning exactly when replaying from an archive.
func (w Window) dayTimeSec(sec int64) time.Time {
	const day = 24 * time.Hour
	return w.Start.Add(time.Unix(sec, 0).Sub(w.Start) / day * day)
}

// secondsPerDay is one window day in whole seconds.
const secondsPerDay = 24 * 60 * 60

// maxIndexedDays bounds the windows dayIndex covers. Below it every
// second in [Start - 1 day, Start + (Days+1) days] is well inside
// time.Duration's ±292 years, so dayTimeSec never saturates there.
const maxIndexedDays = 1 << 16

// dayIndex maps whole start seconds onto window days 0..days in integer
// arithmetic, for the trigger stage. Seconds in [lo, hi] land
// on day (sec - start) / secondsPerDay, which truncates toward zero
// exactly as dayTimeSec does, so the 86 399 seconds before Start are
// day 0 too. Every other second is outside: the caller bins it with
// dayTimeSec.
type dayIndex struct {
	start, lo, hi int64
	days          int
}

// dayIndex returns the window's index. A window it cannot index
// exactly — a start with a fraction of a second, a negative or
// oversized Days, or a start so close to the int64 limits that the
// bounds would overflow — gets an index with no days and no seconds
// inside, so every record takes dayTimeSec.
func (w Window) dayIndex() dayIndex {
	start := w.Start.Unix()
	span := int64(w.Days+1) * secondsPerDay
	if w.Start.Nanosecond() != 0 || w.Days < 0 || w.Days >= maxIndexedDays ||
		start < math.MinInt64+secondsPerDay || start > math.MaxInt64-span {
		return dayIndex{lo: 1, hi: 0, days: -1}
	}
	return dayIndex{start: start, lo: start - (secondsPerDay - 1), hi: start + span - 1, days: w.Days}
}

// of returns sec's window day, or false when sec lies outside [lo, hi].
// The range check comes before any subtraction, so no timestamp can
// overflow into a window day.
func (x dayIndex) of(sec int64) (int, bool) {
	if sec < x.lo || sec > x.hi {
		return 0, false
	}
	return int((sec - x.start) / secondsPerDay), true
}

// dayTimes enumerates the window's day grid.
func (w Window) dayTimes() []time.Time {
	out := make([]time.Time, w.Days)
	for i := range out {
		out[i] = w.Start.Add(time.Duration(i) * 24 * time.Hour)
	}
	return out
}
