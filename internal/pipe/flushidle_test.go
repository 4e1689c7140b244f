package pipe

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"booterscope/internal/flow"
)

// keyPort routes a record to the shard its source port names, so a
// test decides which shard every record lands on.
func keyPort(r *flow.Record) uint64 { return uint64(r.SrcPort) }

// gatedStage announces every Process call on entered and, when gate is
// set, parks in it until the gate is closed: the test's handle on
// "this shard's worker is busy".
type gatedStage struct {
	entered chan int
	gate    chan struct{}
	count   int
}

func (g *gatedStage) Process(b *Batch) error {
	g.entered <- b.Len()
	if g.gate != nil {
		<-g.gate
	}
	g.count += b.Len()
	return nil
}

func (g *gatedStage) Close() error { return nil }

// route feeds n records bound for shard through Process in one batch.
func route(t *testing.T, f *FanOut, shard, n int) {
	t.Helper()
	b := newBatch()
	for i := 0; i < n; i++ {
		r := testRec(i, t0)
		r.SrcPort = uint16(shard)
		b.Recs = append(b.Recs, r)
	}
	err := f.Process(b)
	b.Release()
	if err != nil {
		t.Fatalf("Process: %v", err)
	}
}

func flushIdle(t *testing.T, f *FanOut) {
	t.Helper()
	if err := f.FlushIdle(); err != nil {
		t.Fatalf("FlushIdle: %v", err)
	}
}

func await(t *testing.T, ch <-chan int, want int) {
	t.Helper()
	select {
	case got := <-ch:
		if got != want {
			t.Fatalf("stage was handed %d records, want %d", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("stage was never handed its %d-record slab", want)
	}
}

// withProcs runs fn with GOMAXPROCS pinned (NewFanOut picks inline or
// worker mode from it) and restores the previous value.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestFanOutFlushIdleSkipsBusyShard parks shard 0's stage so its queue
// holds a slab: FlushIdle must leave shard 0's pending slab filling
// while the idle shard 1 is handed whatever it has.
func TestFanOutFlushIdleSkipsBusyShard(t *testing.T) {
	withProcs(2, func() {
		inFlight := metricBatchesInFlight.Value()
		busy := &gatedStage{entered: make(chan int, 8), gate: make(chan struct{})}
		idle := &gatedStage{entered: make(chan int, 8)}
		f := NewFanOut(keyPort, busy, idle)

		// First slab: the worker takes it and parks inside the stage, so
		// the queue is empty again. Second slab: stays queued behind it.
		route(t, f, 0, 3)
		flushIdle(t, f)
		await(t, busy.entered, 3)
		route(t, f, 0, 5)
		flushIdle(t, f)
		if got := len(f.chans[0]); got != 1 {
			t.Fatalf("shard 0 queue holds %d slabs, want 1", got)
		}

		route(t, f, 0, 7)
		route(t, f, 1, 2)
		flushIdle(t, f)
		await(t, idle.entered, 2)
		if got := f.pending[0].Len(); got != 7 {
			t.Fatalf("busy shard's pending slab holds %d records after FlushIdle, want 7", got)
		}
		route(t, f, 0, 4)
		flushIdle(t, f)
		if got := f.pending[0].Len(); got != 11 {
			t.Fatalf("busy shard's pending slab holds %d records, want it still filling at 11", got)
		}

		close(busy.gate)
		if err := f.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if busy.count != 3+5+11 || idle.count != 2 {
			t.Fatalf("stages processed %d and %d records, want 19 and 2", busy.count, idle.count)
		}
		if got := metricBatchesInFlight.Value(); got != inFlight {
			t.Fatalf("batches in flight moved by %v across the run", got-inFlight)
		}
	})
}

// TestFanOutFlushIdleInline pins inline mode (one shard, or one CPU):
// every non-empty slab is processed before FlushIdle returns.
func TestFanOutFlushIdleInline(t *testing.T) {
	for _, tc := range []struct {
		name          string
		procs, shards int
	}{{"one shard", 2, 1}, {"GOMAXPROCS=1", 1, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			withProcs(tc.procs, func() {
				stages := make([]*gatedStage, tc.shards)
				sts := make([]Stage, tc.shards)
				for i := range stages {
					stages[i] = &gatedStage{entered: make(chan int, 8)}
					sts[i] = stages[i]
				}
				f := NewFanOut(keyPort, sts...)
				for s := range stages {
					route(t, f, s, 3+s)
				}
				flushIdle(t, f)
				for s, st := range stages {
					if st.count != 3+s {
						t.Fatalf("shard %d processed %d records inside FlushIdle, want %d", s, st.count, 3+s)
					}
				}
				flushIdle(t, f) // nothing pending: no empty slab reaches a stage
				if err := f.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				for s, st := range stages {
					if got := len(st.entered); got != 1 {
						t.Fatalf("shard %d saw %d slabs, want 1", s, got)
					}
				}
			})
		})
	}
}

// TestFanOutFlushIdleAfterStageError pins the failure contract: once a
// stage has failed FlushIdle returns the latched error, hands nothing
// over, and every pooled slab is released exactly once by Close.
func TestFanOutFlushIdleAfterStageError(t *testing.T) {
	for _, procs := range []int{1, 2} {
		withProcs(procs, func() {
			inFlight := metricBatchesInFlight.Value()
			bad := &collectStage{failAfter: 2}
			good := &collectStage{}
			f := NewFanOut(keyPort, bad, good)
			route(t, f, 0, 5)
			route(t, f, 1, 5)
			// Workers fail asynchronously; inline mode fails inside the
			// call. Either way the error latches within a few hand-overs.
			var err error
			for i := 0; i < 1000 && err == nil; i++ {
				if err = f.FlushIdle(); err == nil {
					time.Sleep(time.Millisecond)
				}
			}
			if err == nil || err.Error() != "stage failed" {
				t.Fatalf("procs=%d: FlushIdle = %v, want the latched stage error", procs, err)
			}
			seen := -1
			if procs == 1 { // inline: no worker is touching the stage
				seen = good.seen
			}
			if again := f.FlushIdle(); !errors.Is(again, err) {
				t.Fatalf("procs=%d: second FlushIdle = %v, want %v", procs, again, err)
			}
			if cerr := f.Close(); !errors.Is(cerr, err) {
				t.Fatalf("procs=%d: Close = %v, want %v", procs, cerr, err)
			}
			if procs == 1 && good.seen != seen {
				t.Fatal("FlushIdle handed records over after the failure")
			}
			if got := metricBatchesInFlight.Value(); got != inFlight {
				t.Fatalf("procs=%d: batches in flight moved by %v — a slab leaked or was released twice", procs, got-inFlight)
			}
		})
	}
}

// TestFanOutFlushIdleLeavesPositionAlone pins that a hand-over is not a
// routing event: Seq, Watermark, Resume's "nothing routed yet" guard
// and Barrier behave as if FlushIdle had never been called.
func TestFanOutFlushIdleLeavesPositionAlone(t *testing.T) {
	a, b := &collectStage{}, &collectStage{}
	f := NewFanOut(KeyDst, a, b)
	f.SetMarkFilter(func(*flow.Record) bool { return true })
	flushIdle(t, f)
	f.Resume(1000, 7) // would panic had FlushIdle counted as routing
	if f.Seq() != 7 || f.Watermark() != 1000 {
		t.Fatalf("position after Resume = (%d, %d), want (1000, 7)", f.Watermark(), f.Seq())
	}
	rb := newBatch()
	for i := 0; i < 50; i++ {
		rb.Recs = append(rb.Recs, testRec(i, time.Unix(2000+int64(i), 0)))
	}
	if err := f.Process(rb); err != nil {
		t.Fatal(err)
	}
	rb.Release()
	seq, wm := f.Seq(), f.Watermark()
	flushIdle(t, f)
	if f.Seq() != seq || f.Watermark() != wm || wm == math.MinInt64 {
		t.Fatalf("FlushIdle moved the position: (%d, %d) -> (%d, %d)", wm, seq, f.Watermark(), f.Seq())
	}
	if err := f.Barrier(func() error {
		if got := a.seen + b.seen; got != 50 {
			t.Errorf("barrier saw %d records processed, want 50", got)
		}
		return nil
	}); err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	flushIdle(t, f)
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	first := uint64(math.MaxUint64)
	for _, q := range append(a.seqs, b.seqs...) {
		first = min(first, q)
	}
	if first != 7 || a.seen+b.seen != 50 {
		t.Fatalf("stages saw %d records starting at seq %d, want 50 from 7", a.seen+b.seen, first)
	}
}
