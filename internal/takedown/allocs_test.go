package takedown

import (
	"testing"

	"booterscope/internal/flow"
	"booterscope/internal/pipe"
)

// allocRow is one entry point of the per-record code: setup warms it to
// its steady state and returns one call, and the call may make exactly
// budget allocations. covers names the per-record functions the call
// runs; testing.AllocsPerRun counts theirs and every callee's, inlined
// or not.
type allocRow struct {
	name   string
	covers []string
	runs   int
	budget float64
	reason string
	setup  func(t *testing.T) func()
}

// TestHotPathAllocs pins the Figure 4 trigger stage's columnar path to
// zero allocations once every day it touches exists: records inside the
// window land in preallocated day bins, and the edge records outside it
// in series days that a first pass created.
func TestHotPathAllocs(t *testing.T) {
	w := WindowOf(testScenario(1).Config())
	recs := edgeRecords(w)
	var cols flow.Columns
	for i := range recs {
		cols.AppendRecord(&recs[i])
	}
	runAllocRows(t, []allocRow{{
		name:   "columnar slab",
		covers: []string{"(*triggerStage).addCol"},
		runs:   100,
		setup: func(t *testing.T) func() {
			st := newTriggerStage(w, newVectorSeries())
			call := func() {
				if err := st.Process(&pipe.Batch{Cols: &cols}); err != nil {
					t.Fatal(err)
				}
			}
			call()
			return call
		},
	}})
}

// runAllocRows measures every row. AllocsPerRun makes one warm-up call,
// then divides the allocations of runs calls by runs, rounding down: a
// per-call allocation always shows, one amortized over more calls than
// runs never does.
func runAllocRows(t *testing.T, rows []allocRow) {
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			call := r.setup(t)
			if got := testing.AllocsPerRun(r.runs, call); got != r.budget {
				t.Errorf("%v allocate %v times per call, want %v (%s)", r.covers, got, r.budget, r.reason)
			}
		})
	}
}
