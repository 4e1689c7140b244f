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
// or not. A pooled row's slabs come from a sync.Pool.
type allocRow struct {
	name   string
	covers []string
	runs   int
	budget float64
	reason string
	pooled bool
	setup  func(t *testing.T) func()
}

// TestHotPathAllocs pins the Figure 4 trigger stage's columnar path to
// zero allocations once every day it touches exists: records inside the
// window land in preallocated day bins, and the edge records outside it
// in series days that a first pass created. It pins the Source edge too:
// a row batch transposed into its pooled columnar slab allocates
// nothing once the pool's slab has grown to the batch.
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
	}, {
		name:   "row batches at the Source edge",
		covers: []string{"Source.Scan", "(*pipe.Batch).Columnar"},
		runs:   100,
		pooled: true,
		setup: func(t *testing.T) func() {
			src := Source(func(emit func(*pipe.Batch) error) error { return emit(pipe.Wrap(recs)) })
			emit := func(_ int, b *pipe.Batch) error {
				if b.Cols.Len() != len(recs) {
					t.Fatalf("slab holds %d rows, want %d", b.Cols.Len(), len(recs))
				}
				b.Release()
				return nil
			}
			call := func() {
				if err := src.Scan(1, emit); err != nil {
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
			if r.pooled && raceEnabled {
				t.Skip("under -race sync.Pool.Put drops a quarter of its items, so pooled slabs allocate at random; the non-race run gates this row")
			}
			call := r.setup(t)
			if got := testing.AllocsPerRun(r.runs, call); got != r.budget {
				t.Errorf("%v allocate %v times per call, want %v (%s)", r.covers, got, r.budget, r.reason)
			}
		})
	}
}
