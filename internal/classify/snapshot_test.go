package classify

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"booterscope/internal/pipe"
)

func TestMonitorSnapshotRoundTrip(t *testing.T) {
	cfg := Config{MinRateBps: 50_000, MinSources: 3}
	m := NewMonitor(cfg)
	m.Retention = 5 * time.Minute
	m.ReAlertAfter = 10 * time.Minute
	recs := genMonitorStream(7, 10_000)
	for i := range recs {
		m.Add(&recs[i])
	}
	snap := m.Snapshot()
	if len(snap.Bins) == 0 || len(snap.Alerted) == 0 {
		t.Fatalf("degenerate snapshot: %d bins, %d markers", len(snap.Bins), len(snap.Alerted))
	}

	r := NewMonitor(cfg)
	r.Retention = m.Retention
	r.ReAlertAfter = m.ReAlertAfter
	r.Restore(snap)
	if got := r.Snapshot(); !reflect.DeepEqual(got, snap) {
		t.Fatal("snapshot→restore→snapshot is not identity")
	}
	if got, want := r.Stats(), m.Stats(); got != want {
		t.Fatalf("restored stats = %+v, want %+v", got, want)
	}
	if got, want := r.Health(), m.Health(); got != want {
		t.Fatalf("restored health = %+v, want %+v", got, want)
	}

	// The restored monitor must behave identically on further input.
	more := genMonitorStream(8, 5_000)
	for i := range more {
		a, b := m.Add(&more[i]), r.Add(&more[i])
		if (a == nil) != (b == nil) || (a != nil && *a != *b) {
			t.Fatalf("restored monitor diverges at record %d: %v vs %v", i, a, b)
		}
	}
	if got, want := r.Stats(), m.Stats(); got != want {
		t.Fatalf("post-restore stats diverge: %+v vs %+v", got, want)
	}
}

// TestShardedSnapshotRestoreAcrossShardCounts pins the snapshot's
// shard-agnostic contract: state folded from n shards and restored
// into m shards is the same state — byte-identical snapshots, equal
// accounting — because Restore re-routes bins with the fan-out's own
// destination hash.
func TestShardedSnapshotRestoreAcrossShardCounts(t *testing.T) {
	cfg := Config{MinRateBps: 50_000, MinSources: 3}
	recs := genMonitorStream(11, 20_000)
	run := func(sm *ShardedMonitor) {
		f := sm.FanOut()
		for off := 0; off < len(recs); off += 512 {
			end := off + 512
			if end > len(recs) {
				end = len(recs)
			}
			b := pipe.Batch{Recs: recs[off:end]}
			if err := f.Process(&b); err != nil {
				t.Fatalf("routing: %v", err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatalf("closing: %v", err)
		}
	}
	src := NewShardedMonitor(cfg, 4)
	run(src)
	snap := src.Snapshot()
	if len(snap.Bins) == 0 {
		t.Fatal("degenerate snapshot")
	}
	for _, shards := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dst := NewShardedMonitor(cfg, shards)
			dst.Restore(snap)
			if got := dst.Snapshot(); !reflect.DeepEqual(got, snap) {
				t.Fatal("restore across shard counts is not identity")
			}
			if got, want := dst.Stats(), src.Stats(); got != want {
				t.Fatalf("stats = %+v, want %+v", got, want)
			}
			gh, wh := dst.Health(), src.Health()
			if gh.ActiveMinutes != wh.ActiveMinutes || gh.ActiveAlerts != wh.ActiveAlerts {
				t.Fatalf("health = %+v, want %+v", gh, wh)
			}
		})
	}
}

// TestShardedSnapshotResumeMatchesUninterrupted is the core restart
// property at the classify layer: run a prefix on one shard count,
// snapshot, restore into a different shard count, resume the stream —
// alerts and accounting match a never-interrupted run exactly.
func TestShardedSnapshotResumeMatchesUninterrupted(t *testing.T) {
	cfg := Config{MinRateBps: 50_000, MinSources: 3}
	recs := genMonitorStream(3, 20_000)
	split := len(recs) / 2

	route := func(t *testing.T, f *pipe.FanOut, lo, hi int) {
		t.Helper()
		for off := lo; off < hi; off += 512 {
			end := off + 512
			if end > hi {
				end = hi
			}
			b := pipe.Batch{Recs: recs[off:end]}
			if err := f.Process(&b); err != nil {
				t.Fatalf("routing: %v", err)
			}
		}
	}

	// Uninterrupted reference run.
	ref := NewShardedMonitor(cfg, 4)
	fr := ref.FanOut()
	route(t, fr, 0, len(recs))
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}
	wantAlerts := ref.Alerts()
	if len(wantAlerts) == 0 {
		t.Fatal("degenerate stream: no alerts")
	}

	// Interrupted run: prefix on 4 shards, snapshot under the barrier,
	// resume the suffix on 2 shards.
	a := NewShardedMonitor(cfg, 4)
	fa := a.FanOut()
	route(t, fa, 0, split)
	var snap *MonitorSnapshot
	var prefixAlerts []Alert
	err := fa.Barrier(func() error {
		a.AdvanceAll(fa.Watermark())
		snap = a.Snapshot()
		prefixAlerts = a.Alerts()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wm, seq := fa.Watermark(), fa.Seq()

	b := NewShardedMonitor(cfg, 2)
	b.Restore(snap)
	fb := b.FanOut()
	fb.Resume(wm, seq)
	route(t, fb, split, len(recs))
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	got := append(append([]Alert(nil), prefixAlerts...), b.Alerts()...)
	if !reflect.DeepEqual(got, wantAlerts) {
		t.Fatalf("alerts diverge across restore:\ngot  %d %v\nwant %d %v",
			len(got), got, len(wantAlerts), wantAlerts)
	}
	if gs, ws := b.Stats(), ref.Stats(); gs != ws {
		t.Fatalf("stats diverge: %+v vs %+v", gs, ws)
	}
	gh, wh := b.Health(), ref.Health()
	if gh.ActiveMinutes != wh.ActiveMinutes || gh.ActiveAlerts != wh.ActiveAlerts {
		t.Fatalf("health diverges: %+v vs %+v", gh, wh)
	}
}

// TestRestoreGaugeMirrorsTable restores the snapshot of
// service/testdata/duplicate-bin.bsck — five bin entries, one listed
// twice — into a serial and a sharded monitor: the occupancy gauge must
// read the table's 4 bins, not the 5 entries.
func TestRestoreGaugeMirrorsTable(t *testing.T) {
	victim := func(i byte) [16]byte { return [16]byte{10: 0xff, 11: 0xff, 12: 203, 14: 113, 15: i} }
	snap := &MonitorSnapshot{LatestUnix: 1543600020, LatestValid: true}
	for _, i := range []byte{1, 2, 2, 3, 4} {
		snap.Bins = append(snap.Bins, BinSnapshot{
			Victim: victim(i), MinuteUnix: 1543600020, Bytes: uint64(i) * 1_000_000,
			Sources: [][16]byte{{15: 1}, {15: 2}},
		})
	}
	cfg := Config{MinRateBps: 50_000, MinSources: 3}
	m := NewMonitor(cfg)
	m.Restore(snap)
	if got, bins := m.m.occupancy.Value(), len(m.minutes); got != float64(bins) || bins != 4 {
		t.Fatalf("serial: gauge %v over %d bins, want 4 and 4", got, bins)
	}
	for _, shards := range []int{1, 2, 3} {
		s := NewShardedMonitor(cfg, shards)
		s.Restore(snap)
		if got, bins := s.m.occupancy.Value(), s.Health().ActiveMinutes; got != float64(bins) || bins != 4 {
			t.Fatalf("%d shards: gauge %v over %d bins, want 4 and 4", shards, got, bins)
		}
	}
}
