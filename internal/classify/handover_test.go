package classify

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/pipe"
)

// handOverResult is everything a monitor run produces that a consumer
// can observe: the alert series, the attack log, the accounting and the
// checkpointable state.
type handOverResult struct {
	alerts   []Alert
	log      []AttackSummary
	stats    MonitorStats
	snapshot []byte
}

func (r *handOverResult) diff(want *handOverResult) string {
	switch {
	case !reflect.DeepEqual(r.alerts, want.alerts):
		return fmt.Sprintf("alerts diverge: got %d, want %d", len(r.alerts), len(want.alerts))
	case !reflect.DeepEqual(r.log, want.log):
		return fmt.Sprintf("attack logs diverge: got %d entries, want %d", len(r.log), len(want.log))
	case r.stats != want.stats:
		return fmt.Sprintf("stats diverge:\ngot  = %+v\nwant = %+v", r.stats, want.stats)
	case !bytes.Equal(r.snapshot, want.snapshot):
		return "snapshot bytes diverge"
	}
	return ""
}

func snapshotBytes(t *testing.T, s *MonitorSnapshot) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runHandOver drives recs through a sharded monitor's fan-out. With a
// nil rng the whole stream goes in as one Process call and nothing is
// handed over before Close. Otherwise the stream is cut into calls of
// 1…5000 records, each row- or column-shaped by coin flip, with
// FlushIdle and Barrier (which, like the daemon's checkpoint, replays
// the global clock on every shard) thrown in between calls.
func runHandOver(t *testing.T, cfg Config, tune func(*Monitor), shards int, recs []flow.Record, rng *rand.Rand) *handOverResult {
	t.Helper()
	sm := NewShardedMonitor(cfg, shards)
	for _, m := range sm.Monitors() {
		tune(m)
	}
	f := sm.FanOut()
	process := func(part []flow.Record, cols bool) {
		var b *pipe.Batch
		if cols {
			b = pipe.NewColsBatch()
			for i := range part {
				b.Cols.AppendRecord(&part[i])
			}
		} else {
			b = pipe.Wrap(append([]flow.Record(nil), part...))
		}
		err := f.Process(b)
		b.Release()
		if err != nil {
			t.Fatalf("Process: %v", err)
		}
	}
	if rng == nil {
		process(recs, false)
	}
	for off := 0; rng != nil && off < len(recs); {
		sizes := [...]int{8, 64, 512, 5000}
		n := min(1+rng.Intn(sizes[rng.Intn(len(sizes))]), len(recs)-off)
		process(recs[off:off+n], rng.Intn(2) == 0)
		off += n
		switch rng.Intn(8) {
		case 0, 1, 2:
			if err := f.FlushIdle(); err != nil {
				t.Fatalf("FlushIdle: %v", err)
			}
		case 3:
			if err := f.Barrier(func() error {
				sm.AdvanceAll(f.Watermark())
				return nil
			}); err != nil {
				t.Fatalf("Barrier: %v", err)
			}
		}
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return &handOverResult{
		alerts:   sm.Alerts(),
		log:      shardedAttackLog(sm),
		stats:    sm.Stats(),
		snapshot: snapshotBytes(t, sm.Snapshot()),
	}
}

// TestShardedHandOverPointsCannotChangeResult is the contract the live
// path's hand-over policy leans on (pipe.FanOut.FlushIdle, and
// service.handOverLocked calling it on a wall-clock rule): Marks and
// Seqs are stamped when a record is routed, so where the stream is cut
// into Process calls, which shape each call has, and when slabs are
// handed to their shards cannot move an alert, an attack-log entry, a
// counter or a byte of checkpointable state — against the unsplit,
// never-flushed run and against the serial Monitor, at 1, 2 and 4
// shards.
func TestShardedHandOverPointsCannotChangeResult(t *testing.T) {
	cfg := Config{MinRateBps: 50_000, MinSources: 3}
	tune := func(m *Monitor) {
		m.Retention = 5 * time.Minute
		m.ReAlertAfter = 10 * time.Minute
		m.TrackAttackLog = true
	}
	for _, seed := range []int64{1, 2} {
		recs := genMonitorStream(seed, 20_000)
		serial := NewMonitor(cfg)
		tune(serial)
		want := &handOverResult{}
		for i := range recs {
			if al := serial.Add(&recs[i]); al != nil {
				want.alerts = append(want.alerts, *al)
			}
		}
		want.log, want.stats = serial.AttackLog(), serial.Stats()
		want.snapshot = snapshotBytes(t, serial.Snapshot())
		if len(want.alerts) == 0 || len(want.log) == 0 || want.stats.EvictedBins == 0 {
			t.Fatalf("seed %d: degenerate stream (%d alerts, %d attacks, %d evictions)",
				seed, len(want.alerts), len(want.log), want.stats.EvictedBins)
		}
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				if d := runHandOver(t, cfg, tune, shards, recs, nil).diff(want); d != "" {
					t.Fatalf("unsplit run against the serial monitor: %s", d)
				}
				for trial := int64(0); trial < 4; trial++ {
					rng := rand.New(rand.NewSource(seed<<8 | trial))
					if d := runHandOver(t, cfg, tune, shards, recs, rng).diff(want); d != "" {
						t.Fatalf("trial %d: %s", trial, d)
					}
				}
			})
		}
	}
}
