package classify

import (
	"testing"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/pipe"
)

// checkIndexes holds the monitor's by-minute indexes against its
// tables: every bin is filed exactly once, under its minute, and every
// attack and alert marker can be found under the minute that decides
// its expiry. (The attack and marker indexes may also hold entries
// their owners have outgrown; eviction skips those.) Each index keeps
// its minutes in strictly ascending order, which expire relies on.
func checkIndexes(t *testing.T, m *Monitor, when string) {
	t.Helper()
	ordered := func(name string, minutes []int64) {
		for i := 1; i < len(minutes); i++ {
			if minutes[i-1] >= minutes[i] {
				t.Fatalf("%s: %s index files minute %d before minute %d", when, name, minutes[i-1], minutes[i])
			}
		}
	}
	ordered("bin", indexMinutes(&m.binsAt))
	ordered("attack", indexMinutes(&m.attacksAt))
	ordered("alert marker", indexMinutes(&m.alertedAt))
	filed := 0
	for _, bucket := range m.binsAt.buckets {
		for _, key := range bucket.keys {
			filed++
			if key.minute != bucket.minute {
				t.Fatalf("%s: bin for minute %d filed under %d", when, key.minute, bucket.minute)
			}
			if _, ok := m.minutes[key]; !ok {
				t.Fatalf("%s: bin index holds %v, the table does not", when, key)
			}
		}
	}
	if filed != len(m.minutes) {
		t.Fatalf("%s: %d bins filed, %d in the table", when, filed, len(m.minutes))
	}
	has := func(ix *minuteIndex[[16]byte], minute int64, v [16]byte) bool {
		for _, bucket := range ix.buckets {
			if bucket.minute != minute {
				continue
			}
			for _, filed := range bucket.keys {
				if filed == v {
					return true
				}
			}
		}
		return false
	}
	for v, st := range m.attacks {
		if !has(&m.attacksAt, st.lastUnix, v) {
			t.Fatalf("%s: attack on %v (last minute %d) is not filed under it", when, victimAddr(v), st.lastUnix)
		}
	}
	for v, last := range m.alerted {
		if !has(&m.alertedAt, last, v) {
			t.Fatalf("%s: alert marker for %v (minute %d) is not filed under it", when, victimAddr(v), last)
		}
	}
}

// indexMinutes lists the minutes an index files keys under, in its
// order.
func indexMinutes[K any](ix *minuteIndex[K]) []int64 {
	out := make([]int64, len(ix.buckets))
	for i, b := range ix.buckets {
		out[i] = b.minute
	}
	return out
}

// sweepResidue counts what whole-table sweeps would evict right now:
// state past its horizon that the index-driven evict missed.
func sweepResidue(m *Monitor) (bins, attacks, markers int) {
	if m.latest == noClock {
		return
	}
	horizon := m.latest - ceilSeconds(m.Retention)
	for key := range m.minutes {
		if key.minute < horizon {
			bins++
		}
	}
	for _, st := range m.attacks {
		if st.lastUnix < horizon {
			attacks++
		}
	}
	alertHorizon := m.latest - floorSeconds(2*m.ReAlertAfter)
	for _, last := range m.alerted {
		if last < alertHorizon {
			markers++
		}
	}
	return
}

// TestMonitorIndexMatchesSweep drives a monitor over the adversarial
// stream — leaps, stragglers behind the horizon, re-alerts, a victim
// table small enough to hit the MaxMinutes refusal path — and after
// every clock advance holds the indexes against the tables: consistent,
// and leaving nothing a full sweep would still evict. Then again after
// Monitor.Restore and ShardedMonitor.Restore, which rebuild the indexes
// from a snapshot that does not carry them.
func TestMonitorIndexMatchesSweep(t *testing.T) {
	cfg := Config{MinRateBps: 50_000, MinSources: 3}
	tune := func(m *Monitor) {
		m.Retention = 5 * time.Minute
		m.ReAlertAfter = 10 * time.Minute
		m.MaxMinutes = 24
	}
	recs := genMonitorStream(29, 30_000)
	drive := func(m *Monitor, recs []flow.Record, when string) {
		for i := range recs {
			was := m.latest
			m.Add(&recs[i])
			if m.latest == was {
				continue
			}
			checkIndexes(t, m, when)
			if bins, attacks, markers := sweepResidue(m); bins+attacks+markers > 0 {
				t.Fatalf("%s, record %d: a full sweep would still evict %d bins, %d attacks, %d markers",
					when, i, bins, attacks, markers)
			}
		}
		checkIndexes(t, m, when+", end")
	}

	m := NewMonitor(cfg)
	tune(m)
	half := len(recs) / 2
	drive(m, recs[:half], "first half")
	if st := m.Stats(); st.RejectedRecords == 0 || st.EvictedBins == 0 || st.Alerts == 0 {
		t.Fatalf("fixture lost coverage: %+v", st)
	}

	snap := m.Snapshot()
	restored := NewMonitor(cfg)
	tune(restored)
	restored.Restore(snap)
	checkIndexes(t, restored, "restored")
	drive(m, recs[half:], "second half, uninterrupted")
	drive(restored, recs[half:], "second half, restored")
	if got, want := snapshotBytes(t, restored.Snapshot()), snapshotBytes(t, m.Snapshot()); string(got) != string(want) {
		t.Fatal("restored monitor diverged from the uninterrupted one")
	}

	sm := NewShardedMonitor(cfg, 3)
	for _, shard := range sm.Monitors() {
		tune(shard)
	}
	sm.Restore(snap)
	restoredBins := 0
	for _, shard := range sm.Monitors() {
		checkIndexes(t, shard, "sharded restore")
		restoredBins += len(shard.minutes)
	}
	if restoredBins != len(snap.Bins) || restoredBins == 0 {
		t.Fatalf("sharded restore holds %d bins, the snapshot %d", restoredBins, len(snap.Bins))
	}
	f := sm.FanOut()
	if err := f.Process(&pipe.Batch{Recs: recs[half:]}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, shard := range sm.Monitors() {
		checkIndexes(t, shard, "sharded resume")
	}
}
