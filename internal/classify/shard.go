package classify

import (
	"sort"

	"booterscope/internal/flow"
	"booterscope/internal/pipe"
	"booterscope/internal/telemetry"
	"booterscope/internal/telemetry/eventlog"
)

// ShardedMonitor runs one Monitor per pipeline shard and merges their
// output back into the serial monitor's results. Records must be
// routed by destination hash (pipe.KeyDst) so each victim's state
// lives on exactly one shard, and the driving fan-out must stamp
// watermarks filtered by MarkFilter — FanOut() builds a correctly
// configured one. Under those conditions the sharded run reproduces
// the serial Monitor exactly: same alerts in the same stream order
// (Alerts sorts by the stamped global sequence numbers), same
// eviction and occupancy accounting (every shard shares one metrics
// struct maintained additively), same alert-marker pruning.
//
// The one divergence is the victim-table capacity bound: MaxMinutes is
// a global cap in the serial monitor but a per-shard cap here, so
// rejection accounting can differ once a run pushes the table into
// saturation. Below the cap — the designed operating point — the
// equivalence is exact; the property test in shard_test.go pins it.
type ShardedMonitor struct {
	// OnAlert, when set, is invoked for every alert as it is raised.
	// Shards run concurrently, so OnAlert must be safe for concurrent
	// calls; alerts arrive in shard-local (not global) order. Set it
	// before the pipeline starts.
	OnAlert func(Alert)

	cfg    Config
	m      *monitorMetrics
	shards []*monitorShard
}

// NewShardedMonitor builds a monitor split across n shards (n >= 1).
func NewShardedMonitor(cfg Config, n int) *ShardedMonitor {
	if n < 1 {
		n = 1
	}
	s := &ShardedMonitor{cfg: cfg.withDefaults(), m: newMonitorMetrics()}
	for i := 0; i < n; i++ {
		s.shards = append(s.shards, &monitorShard{
			parent: s,
			mon:    newMonitorWith(cfg, s.m),
		})
	}
	return s
}

// SetEvents attaches the flight recorder every shard monitor emits
// attack lifecycle events into. Call before the pipeline starts; nil
// turns the events off.
func (s *ShardedMonitor) SetEvents(l *eventlog.Log) {
	for _, sh := range s.shards {
		sh.mon.Events = l
	}
}

// Monitors exposes the per-shard monitors for configuration
// (Retention, ReAlertAfter, capacity bounds) before the run starts.
//
//bsvet:allow deadcode oracle: TestMonitorCheckpointFrozen tunes each shard's retention, re-alert and source cap with it
func (s *ShardedMonitor) Monitors() []*Monitor {
	out := make([]*Monitor, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.mon
	}
	return out
}

// stages returns the shard stages in index order, for pipe.NewFanOut.
func (s *ShardedMonitor) stages() []pipe.Stage {
	out := make([]pipe.Stage, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh
	}
	return out
}

// MarkFilter is the watermark predicate matching the serial monitor's
// clock: Add only advances `latest` on records passing the optimistic
// amplified-NTP filter, so the stamped prefix-max must run over
// exactly those records. The predicate reads the live config so a
// SetConfig reload (run under the fan-out barrier, which serializes
// with routing) changes the filter too.
func (s *ShardedMonitor) MarkFilter() func(*flow.Record) bool {
	return func(r *flow.Record) bool { return isAmplifiedNTP(r, s.cfg) }
}

// colMarkFilter is MarkFilter evaluated directly against a columnar
// slab — the columnar routing path's watermark predicate.
func (s *ShardedMonitor) colMarkFilter() func(*flow.Columns, int) bool {
	return func(c *flow.Columns, i int) bool { return isAmplifiedNTPCols(c, i, s.cfg) }
}

// FanOut builds the fan-out stage that drives this monitor: victim
// hash routing, the monitor's watermark filter, one worker per shard.
// Columnar batches route and stamp column-wise end to end.
func (s *ShardedMonitor) FanOut() *pipe.FanOut {
	f := pipe.NewFanOut(pipe.KeyDst, s.stages()...)
	f.SetMarkFilter(s.MarkFilter())
	f.SetColKey(pipe.KeyDstCols)
	f.SetColMarkFilter(s.colMarkFilter())
	return f
}

// Alerts returns every alert raised, merged across shards into global
// stream order by the fan-out's sequence stamps. Call only after the
// pipeline has finished (FanOut.Close returned).
func (s *ShardedMonitor) Alerts() []Alert {
	var all []seqAlert
	for _, sh := range s.shards {
		all = append(all, sh.alerts...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]Alert, len(all))
	for i, sa := range all {
		out[i] = sa.alert
	}
	return out
}

// Stats returns the aggregate accounting — the shards share one
// metrics struct, so this is the same view Monitor.Stats gives for a
// serial run.
func (s *ShardedMonitor) Stats() MonitorStats { return s.m.stats() }

// Health aggregates the shard monitors' health: occupancy and live
// alerts sum; the table is saturated if any shard is.
func (s *ShardedMonitor) Health() MonitorHealth {
	var h MonitorHealth
	for _, sh := range s.shards {
		mh := sh.mon.Health()
		h.ActiveMinutes += mh.ActiveMinutes
		h.ActiveAlerts += mh.ActiveAlerts
		h.Saturated = h.Saturated || mh.Saturated
	}
	h.RejectedRecords = s.m.rejected.Value()
	h.SourceOverflows = s.m.overflows.Value()
	return h
}

// RegisterTelemetry attaches the shared accounting to r under the same
// classify_monitor_* names a serial monitor uses.
func (s *ShardedMonitor) RegisterTelemetry(r *telemetry.Registry) {
	// All shards share s.m, so registering through any one shard
	// exposes the aggregate.
	s.shards[0].mon.RegisterTelemetry(r)
}

type seqAlert struct {
	seq   uint64
	alert Alert
}

// monitorShard adapts one Monitor to pipe.Stage. Process runs on that
// shard's worker goroutine only, so the alert slice needs no lock;
// Alerts reads it after the workers have joined.
type monitorShard struct {
	parent *ShardedMonitor
	mon    *Monitor
	alerts []seqAlert
}

// Process feeds the batch to the shard monitor, using the stamped
// watermarks (falling back to each record's own start time when the
// batch was not routed through a fan-out). Columnar batches stay
// columnar: they run the column loop AddCols runs, so no flow.Record
// and no netip.Addr is built for any row. The counters every shard
// shares are added once for the whole batch.
func (s *monitorShard) Process(b *pipe.Batch) error {
	m := s.mon
	var t Tally
	if c := b.Cols; c != nil {
		m.addCols(c, 0, c.Len(), b.Marks, &t, func(al *Alert, i int) { s.emit(al, b, i) })
	} else {
		for i := range b.Recs {
			s.emit(m.addRecord(&b.Recs[i], b.Marks, i, &t), b, i)
		}
	}
	m.Count(&t)
	return nil
}

// emit records one (possibly nil) alert with its stream sequence.
func (s *monitorShard) emit(al *Alert, b *pipe.Batch, i int) {
	if al == nil {
		return
	}
	var seq uint64
	if i < len(b.Seqs) {
		seq = b.Seqs[i]
	} else {
		seq = uint64(len(s.alerts))
	}
	s.alerts = append(s.alerts, seqAlert{seq: seq, alert: *al})
	if s.parent.OnAlert != nil {
		s.parent.OnAlert(*al)
	}
}

// AdvanceTo implements pipe.Advancer: at end of stream the fan-out
// replays the final global clock so shards whose own records stopped
// early still evict and prune exactly as the serial monitor did.
func (s *monitorShard) AdvanceTo(unixSec int64) { s.mon.AdvanceTo(unixSec) }

// Close implements pipe.Stage; merging happens in Alerts/Stats, which
// read shard state only after the pipeline has joined.
func (s *monitorShard) Close() error { return nil }
