package classify

import (
	"bytes"
	"math"
	"sort"

	"booterscope/internal/flow"
	"booterscope/internal/pipe"
)

// MonitorSnapshot is the serializable state of a streaming monitor —
// everything a restarted detector needs to resume mid-attack: the
// victim table (per-victim minute bins with their bounded source
// sets), the re-alert suppression markers, the eviction clock, and the
// ingest accounting counters. The snapshot is shard-agnostic: a
// ShardedMonitor folds its shards into one flat snapshot, and Restore
// re-routes the bins with the same destination hash the live fan-out
// uses, so the shard count may change across a restart.
//
// All slices are sorted (bins by victim then minute, sources and
// alert markers bytewise) so two equal states encode byte-identically.
type MonitorSnapshot struct {
	// LatestUnix is the eviction clock (unix seconds of the truncated
	// minute); LatestValid distinguishes a genuine epoch clock from a
	// monitor that has seen no matched record yet.
	LatestUnix  int64
	LatestValid bool
	Bins        []BinSnapshot
	Alerted     []AlertMarker
	Attacks     []AttackSnapshot
	Stats       MonitorStats
}

// BinSnapshot is one (victim, minute) aggregation bin.
type BinSnapshot struct {
	Victim         [16]byte
	MinuteUnix     int64
	Bytes          uint64
	Sources        [][16]byte
	SourceOverflow uint64
}

// AlertMarker is one re-alert suppression entry: the last minute an
// alert was raised for a victim.
type AlertMarker struct {
	Victim     [16]byte
	MinuteUnix int64
}

// AttackSnapshot is one open attack's lifecycle state. Persisting it
// keeps attack IDs stable across a checkpoint restart: a restored
// daemon re-raising a mid-window alert stamps it with the same ID the
// uninterrupted run would have.
type AttackSnapshot struct {
	Victim     [16]byte
	ID         uint64
	OpenedUnix int64
	LastUnix   int64
}

// Snapshot captures the monitor's state: the one-monitor case of the
// sharded fold. The caller must ensure the monitor is quiescent (no
// concurrent Add).
//
//bsvet:allow deadcode oracle: TestMonitorSnapshotRoundTrip and TestShardedSnapshotRestoreAcrossShardCounts use the serial monitor as reference
func (m *Monitor) Snapshot() *MonitorSnapshot { return snapshot([]*Monitor{m}) }

// snapshot folds the state of monitors that share one metrics struct
// and own disjoint victim sets into one flat snapshot: a disjoint
// union, under the latest of their eviction clocks. Its bin and marker
// tables are empty, not nil, when the monitors hold none.
func snapshot(ms []*Monitor) *MonitorSnapshot {
	var bins, alerted int
	for _, m := range ms {
		bins, alerted = bins+len(m.minutes), alerted+len(m.alerted)
	}
	snap := &MonitorSnapshot{Stats: ms[0].m.stats(),
		Bins: make([]BinSnapshot, 0, bins), Alerted: make([]AlertMarker, 0, alerted)}
	for _, m := range ms {
		if u := m.latest; u != noClock && (!snap.LatestValid || u > snap.LatestUnix) {
			snap.LatestUnix, snap.LatestValid = u, true
		}
		for key, agg := range m.minutes {
			snap.Bins = append(snap.Bins, BinSnapshot{
				Victim:         key.dst,
				MinuteUnix:     key.minute,
				Bytes:          agg.bytes,
				Sources:        agg.sources.Snapshot(),
				SourceOverflow: agg.sources.Overflow(),
			})
		}
		for victim, last := range m.alerted {
			snap.Alerted = append(snap.Alerted, AlertMarker{Victim: victim, MinuteUnix: last})
		}
		for victim, st := range m.attacks {
			snap.Attacks = append(snap.Attacks, AttackSnapshot{
				Victim:     victim,
				ID:         st.id,
				OpenedUnix: st.openedUnix,
				LastUnix:   st.lastUnix,
			})
		}
	}
	sortBins(snap.Bins)
	sortMarkers(snap.Alerted)
	sortAttacks(snap.Attacks)
	return snap
}

func sortAttacks(as []AttackSnapshot) {
	sort.Slice(as, func(i, j int) bool {
		return bytes.Compare(as[i].Victim[:], as[j].Victim[:]) < 0
	})
}

func sortBins(bins []BinSnapshot) {
	sort.Slice(bins, func(i, j int) bool {
		if c := bytes.Compare(bins[i].Victim[:], bins[j].Victim[:]); c != 0 {
			return c < 0
		}
		return bins[i].MinuteUnix < bins[j].MinuteUnix
	})
}

func sortMarkers(ms []AlertMarker) {
	sort.Slice(ms, func(i, j int) bool {
		return bytes.Compare(ms[i].Victim[:], ms[j].Victim[:]) < 0
	})
}

// restoreBin loads one bin into the monitor, after the attacks: the
// bin carries its victim's attack when that attack reaches the bin's
// minute; otherwise the bin's next record opens or extends the attack,
// as it would have uninterrupted. Counter state and the occupancy
// gauge are restored separately (once, not per shard), the gauge from
// the table itself.
func (m *Monitor) restoreBin(b *BinSnapshot) {
	key := minuteKey{dst: b.Victim, minute: b.MinuteUnix}
	agg := &monAgg{
		bytes:   b.Bytes,
		sources: *flow.RestoreSourceSet(m.maxSourcesPerBin(), b.Sources, b.SourceOverflow),
	}
	if st := m.attacks[key.dst]; st != nil && st.lastUnix >= key.minute {
		agg.attack = st
	}
	// Recompute the threshold latch (rate and sources grow
	// monotonically within a bin, so "crossed earlier" equals "crossed
	// now"): a restored bin must not re-fire its crossing event.
	agg.crossed = m.cfg.passes(minuteRate(agg.bytes), agg.sources.Len())
	m.minutes[key] = agg
	m.binsAt.add(key.minute, key)
}

func (m *Monitor) restoreMarker(a *AlertMarker) {
	m.alerted[a.Victim] = a.MinuteUnix
	m.alertedAt.add(a.MinuteUnix, a.Victim)
}

// restoreAttack reinstates one open attack without emitting an opened
// event — the process that took the checkpoint already recorded it.
func (m *Monitor) restoreAttack(a *AttackSnapshot) {
	m.attacks[a.Victim] = &attackState{
		id:         a.ID,
		openedUnix: a.OpenedUnix,
		lastUnix:   a.LastUnix,
	}
	m.attacksAt.add(a.LastUnix, a.Victim)
}

// Restore loads a snapshot into a freshly constructed monitor: the
// one-monitor case of the sharded restore. Counters resume from the
// snapshot's values, so accounting survives a restart instead of
// resetting to zero.
//
//bsvet:allow deadcode oracle: TestMonitorSnapshotRoundTrip and TestShardedSnapshotRestoreAcrossShardCounts use the serial monitor as reference
func (m *Monitor) Restore(s *MonitorSnapshot) { restore([]*Monitor{m}, s) }

// restore loads a flat snapshot into freshly constructed monitors that
// share one metrics struct, handing each attack, marker and bin to the
// monitor the fan-out's destination hash routes its victim to — all to
// the one monitor when there is one. The shared counters resume from
// the snapshot's values, and the occupancy gauge is set from the table.
func restore(ms []*Monitor, snap *MonitorSnapshot) {
	n := uint64(len(ms))
	for i := range snap.Attacks {
		a := &snap.Attacks[i]
		ms[pipe.KeyDstAddr(a.Victim)%n].restoreAttack(a)
	}
	for i := range snap.Alerted {
		a := &snap.Alerted[i]
		ms[pipe.KeyDstAddr(a.Victim)%n].restoreMarker(a)
	}
	for i := range snap.Bins {
		b := &snap.Bins[i]
		ms[pipe.KeyDstAddr(b.Victim)%n].restoreBin(b)
	}
	var bins int
	for _, m := range ms {
		if snap.LatestValid {
			m.latest = floorMinute(snap.LatestUnix)
		}
		bins += len(m.minutes)
	}
	ms[0].m.occupancy.Set(float64(bins))
	restoreStats(ms[0].m, snap.Stats)
}

// restoreStats advances fresh counters to the snapshot's values. The
// metrics struct must be newly created (counters at zero).
func restoreStats(m *monitorMetrics, s MonitorStats) {
	m.records.Add(s.Records)
	m.matched.Add(s.Matched)
	m.alerts.Add(s.Alerts)
	m.rejected.Add(s.RejectedRecords)
	m.evicted.Add(s.EvictedBins)
	m.overflows.Add(s.SourceOverflows)
}

// setConfig replaces the monitor's classification thresholds — the
// SIGHUP reload path. The caller must ensure the monitor is quiescent.
func (m *Monitor) setConfig(cfg Config) { m.cfg = cfg.withDefaults() }

// Snapshot folds every shard's state into one flat snapshot. Call only
// while the driving fan-out is quiescent (inside FanOut.Barrier, or
// after Close): shards own disjoint victim sets, so the fold is a
// disjoint union. Before snapshotting, advance every shard to the
// global watermark first (AdvanceAll) so the per-shard eviction clocks
// agree — the service daemon's checkpoint path does both.
func (s *ShardedMonitor) Snapshot() *MonitorSnapshot { return snapshot(s.Monitors()) }

// AdvanceAll replays the global eviction clock on every shard — the
// same normalization FanOut.Close applies at end of stream. Running it
// before Snapshot makes the per-shard clocks (and therefore eviction
// and marker pruning) independent of which shard happened to see the
// last matched record, so a snapshot restored across a different shard
// count behaves identically. unixSec is the fan-out's Watermark();
// math.MinInt64 (no matched record yet) is a no-op.
func (s *ShardedMonitor) AdvanceAll(unixSec int64) {
	if unixSec == math.MinInt64 {
		return
	}
	for _, sh := range s.shards {
		sh.mon.AdvanceTo(unixSec)
	}
}

// Restore loads a flat snapshot, distributing attacks, markers and
// bins across shards by the same destination hash the fan-out routes
// records with. Shard monitors must be empty (freshly constructed);
// the shared counters resume from the snapshot's values.
func (s *ShardedMonitor) Restore(snap *MonitorSnapshot) { restore(s.Monitors(), snap) }

// SetConfig replaces the classification thresholds on every shard and
// on the fan-out's watermark filter (MarkFilter reads the live config).
// Call only while the pipeline is quiescent (inside FanOut.Barrier).
func (s *ShardedMonitor) SetConfig(cfg Config) {
	s.cfg = cfg.withDefaults()
	for _, sh := range s.shards {
		sh.mon.setConfig(cfg)
	}
}

// Config returns the current classification thresholds (defaults
// filled).
func (s *ShardedMonitor) Config() Config { return s.cfg }
