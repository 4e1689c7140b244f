package pipe

import (
	"runtime"
	"testing"
	"time"

	"booterscope/internal/flow"
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

// TestHotPathAllocs pins the fan-out's routing loops to zero
// allocations once its gather scratch and its shards' pooled slabs are
// at size: a three-shard, stamping fan-out routes 512-record batches,
// handing each shard a full slab every few calls.
func TestHotPathAllocs(t *testing.T) {
	recs := make([]flow.Record, 512)
	for i := range recs {
		recs[i] = testRec(i, t0.Add(time.Duration(i%97)*time.Second))
	}
	var cols flow.Columns
	for i := range recs {
		cols.AppendRecord(&recs[i])
	}
	fanOut := func(t *testing.T, b *Batch) func() {
		// One P makes the three-shard fan-out process inline, on the
		// measuring goroutine.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		nop := StageFunc{ProcessFn: func(*Batch) error { return nil }}
		f := NewFanOut(KeyDst, nop, nop, nop)
		f.SetMarkFilter(func(*flow.Record) bool { return true })
		f.SetColKey(KeyDstCols)
		f.SetColMarkFilter(func(*flow.Columns, int) bool { return true })
		t.Cleanup(func() { f.Close() })
		call := func() {
			if err := f.Process(b); err != nil {
				t.Fatal(err)
			}
		}
		for range 2 * DefaultBatchSize / len(recs) {
			call()
		}
		return call
	}
	runAllocRows(t, []allocRow{{
		name:   "columnar batches",
		covers: []string{"(*FanOut).routeCols"},
		runs:   100,
		reason: "the per-shard gather index scratch is allocated once per FanOut, and the watermark stamp scratch grows to the largest batch seen; both are reused across batches",
		pooled: true,
		setup:  func(t *testing.T) func() { return fanOut(t, &Batch{Cols: &cols}) },
	}, {
		name:   "row batches",
		covers: []string{"(*FanOut).routeRows"},
		runs:   100,
		pooled: true,
		setup:  func(t *testing.T) func() { return fanOut(t, &Batch{Recs: recs}) },
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
