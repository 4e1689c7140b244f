package pipe

import (
	"sync/atomic"
	"testing"
	"time"

	"booterscope/internal/flow"
)

// TestFanOutBackpressureBound stalls both shards' stages and routes full
// slabs at them. The router must block once each shard has two slabs
// queued behind the one its worker holds; pooled batches in flight must
// stay within shards × (depth + 2) while it is blocked; and every slab
// must be processed and returned to the pool after Close.
func TestFanOutBackpressureBound(t *testing.T) {
	const (
		shards    = 2
		wantDepth = 2
		// Enough slabs to fill every queue and leave the router blocked
		// with two more to go.
		total = shards*(wantDepth+1) + 2
	)
	withProcs(2, func() {
		inFlight := metricBatchesInFlight.Value()
		gate := make(chan struct{})
		stages := make([]*gatedStage, shards)
		sts := make([]Stage, shards)
		for s := range stages {
			stages[s] = &gatedStage{entered: make(chan int, total), gate: gate}
			sts[s] = stages[s]
		}
		f := NewFanOut(keyPort, sts...)

		// Unpooled input batches, so only the fan-out's own slabs count
		// as in flight.
		inputs := make([]*Batch, shards)
		for s := range inputs {
			recs := make([]flow.Record, DefaultBatchSize)
			for i := range recs {
				recs[i] = testRec(i, t0)
				recs[i].SrcPort = uint16(s)
			}
			inputs[s] = &Batch{Recs: recs}
		}
		var routed atomic.Int64
		routerErr := make(chan error, 1)
		go func() {
			for i := 0; i < total; i++ {
				if err := f.Process(inputs[i%shards]); err != nil {
					routerErr <- err
					return
				}
				routed.Add(1)
			}
			routerErr <- nil
		}()

		for _, st := range stages {
			await(t, st.entered, DefaultBatchSize)
		}
		// One slab held per worker plus wantDepth queued per shard: the
		// router gets that far and no further.
		const blockedAt = shards * (wantDepth + 1)
		peak := 0.0
		deadline := time.Now().Add(10 * time.Second)
		for routed.Load() < blockedAt && time.Now().Before(deadline) {
			peak = max(peak, metricBatchesInFlight.Value()-inFlight)
			time.Sleep(time.Millisecond)
		}
		for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); {
			peak = max(peak, metricBatchesInFlight.Value()-inFlight)
			time.Sleep(time.Millisecond)
		}
		if got := routed.Load(); got != blockedAt {
			t.Fatalf("router completed %d slab hand-overs against stalled stages, want it blocked after %d", got, blockedAt)
		}
		for s := range f.chans {
			if got := len(f.chans[s]); got != wantDepth {
				t.Fatalf("shard %d queue holds %d slabs while the router is blocked, want %d", s, got, wantDepth)
			}
		}
		if bound := float64(shards * (wantDepth + 2)); peak > bound {
			t.Fatalf("pipe_batches_in_flight rose by %v with stalled stages, want at most shards × (depth + 2) = %v", peak, bound)
		}

		close(gate)
		if err := <-routerErr; err != nil {
			t.Fatalf("Process: %v", err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		for s, st := range stages {
			if want := total / shards * DefaultBatchSize; st.count != want {
				t.Fatalf("shard %d processed %d records, want %d", s, st.count, want)
			}
		}
		if got := metricBatchesInFlight.Value(); got != inFlight {
			t.Fatalf("batches in flight moved by %v across the run", got-inFlight)
		}
	})
}
