// Package service turns the collector→classify pipeline into an
// always-on detection daemon: periodic atomic checkpoints of the
// streaming monitor's state, graceful drain (SIGTERM) and threshold
// reload (SIGHUP) through the fan-out's stop-the-world barrier, a
// detection-latency SLO with a load-shedding ladder for overload, and
// a detect→mitigate loop emitting BGP FlowSpec rules on sustained
// attacks. A daemon restarted mid-attack restores the victim table
// from its last checkpoint and replays the flow archive past the
// checkpoint's durability watermark, so the minute-bin series — and
// therefore alerting — has no gap and no double counting.
package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"booterscope/internal/bgp"
	"booterscope/internal/chaos"
	"booterscope/internal/classify"
	"booterscope/internal/flow"
	"booterscope/internal/flowstore"
	"booterscope/internal/pipe"
	"booterscope/internal/telemetry"
	"booterscope/internal/telemetry/eventlog"
)

// ErrDraining is returned for records arriving after Drain began; the
// refusal is counted in service_drain_refused_records_total.
var ErrDraining = errors.New("service: draining")

// Options configures the daemon.
type Options struct {
	// Classify is the detector's thresholds (reloadable via Reload).
	Classify classify.Config
	// Parallelism is the monitor shard count (pipe.Parallelism rules:
	// < 1 selects NumCPU).
	Parallelism int
	// CheckpointDir, when set, enables checkpoint/restore: New loads
	// the latest checkpoint from it, and Checkpoint/Drain publish
	// snapshots into it atomically.
	CheckpointDir string
	// Store, when set, is the flow archive: accepted records are
	// appended before classification (shed at ShedArchive), and a
	// restart replays it past the checkpoint's durability watermark.
	// The store is borrowed — the caller opens and closes it.
	Store *flowstore.Store
	// WriteFault, when set, injects faults into checkpoint writes (the
	// chaos suite's crash-mid-snapshot hook). Nil means no injection.
	WriteFault *chaos.Failpoint
	// OnAlert, when set, receives every alert (concurrently, from
	// shard workers — same contract as ShardedMonitor.OnAlert).
	OnAlert func(classify.Alert)
	// Mitigation configures the detect→mitigate FlowSpec loop.
	Mitigation MitigationOptions
	// SLO configures the detection-latency objective and shed ladder.
	SLO SLOOptions
	// QueueDepth, when set, probes the ingest queue (depth, capacity)
	// at each SLO evaluation — the collector's socket queue.
	QueueDepth func() (depth, capacity int)
	// Registry receives the service_* metrics (nil selects a private
	// registry). The detection-latency histogram lives here too.
	Registry *telemetry.Registry
	// Events, when set, is the flight recorder the daemon (and its
	// monitor shards) emits lifecycle events into; nil selects the
	// process-wide recorder (eventlog.Active) as it is when New runs,
	// which may be nil — recording disabled. New resolves it once, so
	// the monitor, the mitigator and the daemon's own events always go
	// to the same recorder.
	Events *eventlog.Log
	// IncidentDir, when set, enables incident dumps: on an SLO
	// burn-rate breach, a shed-ladder escalation, a checkpoint
	// failure, or drain, the flight recorder's ring is written there
	// atomically (CRC-framed, rename-committed — the checkpoint
	// pattern) for post-hoc timeline reconstruction.
	IncidentDir string
}

// RestoreReport describes what New found in the checkpoint directory
// and what ReplayFromStore then reprocessed.
type RestoreReport struct {
	// Restored reports monitor state loaded from a checkpoint.
	Restored bool
	// Corrupt reports a checkpoint present but failing validation —
	// the daemon cold-started (replaying the archive from record zero
	// if one is configured).
	Corrupt bool
	// Watermark and Seq are the restored pipeline position.
	Watermark int64
	Seq       uint64
	// StoreDurable is the archive record count the checkpoint covers;
	// ReplayFromStore skips exactly this many records.
	StoreDurable uint64
	// Replayed counts archive records reprocessed by ReplayFromStore.
	Replayed uint64
}

// DrainReport is the final accounting a graceful shutdown returns.
type DrainReport struct {
	// Checkpointed reports a final checkpoint published.
	Checkpointed bool
	// Withdrawn lists the FlowSpec rules retracted on the way down.
	Withdrawn []bgp.FlowSpecRule
	// Service and Monitor are the closing accounting snapshots.
	Service ServiceStats
	Monitor classify.MonitorStats
}

// HealthReport condenses the daemon's state into an operational
// verdict for /healthz-style probes.
type HealthReport struct {
	Monitor  classify.MonitorHealth
	Shed     ShedLevel
	Draining bool
	// ActiveRules counts announced FlowSpec mitigations.
	ActiveRules int
}

// Service is the always-on detection daemon. All ingest-path entry
// points (Ingest, Checkpoint, Reload, Drain, ReplayFromStore) are
// serialized on one mutex — the fan-out's Barrier/Process contract
// requires it — so they may be called from any goroutine.
type Service struct {
	opts    Options
	reg     *telemetry.Registry
	m       *metrics
	monitor *classify.ShardedMonitor
	fan     *pipe.FanOut
	mit     *mitigator
	shed    *shedder
	burn    *burnEvaluator
	detect  *telemetry.Histogram
	now     func() time.Time // detect-latency and hand-over pacing clock; tests inject a fake

	mu sync.Mutex
	//bsvet:guards mu
	handOverAt time.Time // GCRA theoretical arrival time of the next partial hand-over
	//bsvet:guards mu
	restore RestoreReport
	//bsvet:guards mu
	draining bool
	//bsvet:guards mu
	drainRep *DrainReport
	//bsvet:guards mu
	drainErr error
	//bsvet:guards mu
	sampleTick uint64
}

// New builds the daemon and, when a checkpoint directory is
// configured, restores the monitor and pipeline position from the
// latest checkpoint. A corrupt checkpoint is not fatal: it is counted
// (service_restore_corrupt_total), reported in Restore(), and the
// daemon cold-starts — call ReplayFromStore to rebuild state from the
// flow archive in either case.
func New(opts Options) (*Service, error) {
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if opts.Events == nil {
		opts.Events = eventlog.Active()
	}
	s := &Service{opts: opts, reg: reg, m: newMetrics(), detect: telemetry.NewHistogram()}
	s.now = time.Now //bsvet:allow determinism detect latency and hand-over pacing measure host time; results are hand-over independent (TestShardedHandOverPointsCannotChangeResult)
	s.monitor = classify.NewShardedMonitor(opts.Classify, pipe.Parallelism(opts.Parallelism))
	s.monitor.SetEvents(s.eventsLog())
	s.mit = newMitigator(opts.Mitigation, s.m, s.eventsLog)
	s.monitor.OnAlert = func(a classify.Alert) {
		s.mit.onAlert(a)
		if opts.OnAlert != nil {
			opts.OnAlert(a)
		}
	}
	s.shed = newShedder(opts.SLO, s.m)
	s.burn = newBurnEvaluator()
	if opts.CheckpointDir != "" {
		cp, err := loadCheckpoint(opts.CheckpointDir)
		switch {
		case errors.Is(err, errCheckpointCorrupt):
			s.m.restoreCorrupt.Inc()
			s.restore.Corrupt = true
		case err != nil:
			return nil, err
		case cp != nil:
			s.monitor.SetConfig(cp.Config)
			s.monitor.Restore(cp.Monitor)
			s.restore = RestoreReport{
				Restored:     true,
				Watermark:    cp.Watermark,
				Seq:          cp.Seq,
				StoreDurable: cp.StoreDurable,
			}
			s.m.restores.Inc()
		}
	}
	// The fan-out is built after a possible SetConfig so its watermark
	// filter reads the restored thresholds from the first record on.
	s.fan = s.monitor.FanOut()
	if s.restore.Restored {
		s.fan.Resume(s.restore.Watermark, s.restore.Seq)
	}
	s.registerTelemetry(reg)
	return s, nil
}

// eventsLog is the flight recorder the daemon emits into, as New
// resolved it (possibly nil — Emit and DumpTo are nil-safe).
func (s *Service) eventsLog() *eventlog.Log { return s.opts.Events }

// dumpIncident writes the flight recorder's ring into the incident
// directory (no-op without one). Dump failures are counted by the
// recorder (eventlog_dump_failures_total) and never interrupt the
// trigger path — an incident dump must not make the incident worse.
func (s *Service) dumpIncident(reason string) {
	if s.opts.IncidentDir == "" {
		return
	}
	_, _, _ = s.eventsLog().DumpTo(s.opts.IncidentDir, reason, nil)
}

// Restore reports what New found in the checkpoint directory.
func (s *Service) Restore() RestoreReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restore
}

// Config returns the active classification thresholds.
func (s *Service) Config() classify.Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.monitor.Config()
}

// Ingest feeds one decoded batch into the detection path: archive
// append (unless shed), then classification through the fan-out (an
// append error is returned after routing, never instead of it).
// service_detect_seconds times the whole call, so it is the
// archive-and-route latency the SLO evaluates, shard-queue backpressure
// included; a routed record's wait in its slab is outside it and
// bounded by handOverLocked (per-attack attribution is ROADMAP 5c).
func (s *Service) Ingest(recs []flow.Record) error {
	start := s.now()
	err := s.ingest(recs, start)
	s.detect.ObserveDuration(s.now().Sub(start))
	return err
}

func (s *Service) ingest(recs []flow.Record, start time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.m.refused.Add(uint64(len(recs)))
		return ErrDraining
	}
	lvl := s.shed.current()
	kept := recs
	if lvl >= ShedSample {
		// 1-in-N systematic sampling with the sampling rate scaled by
		// N: rate estimates stay unbiased, per-record cost drops
		// N-fold. Source counts thin — a declared degradation.
		n := uint64(sampleN)
		kept = make([]flow.Record, 0, len(recs)/int(n)+1)
		for i := range recs {
			s.sampleTick++
			if s.sampleTick%n != 0 {
				continue
			}
			r := recs[i]
			if r.SamplingRate < 1 {
				r.SamplingRate = 1
			}
			r.SamplingRate *= uint32(n)
			kept = append(kept, r)
		}
		s.m.sampledOut.Add(uint64(len(recs) - len(kept)))
	}
	if len(kept) == 0 {
		return nil
	}
	var archErr error
	if s.opts.Store != nil {
		if lvl >= ShedArchive {
			s.m.archiveShed.Add(uint64(len(kept)))
		} else if err := s.opts.Store.Append(kept); err != nil {
			s.m.archiveErrors.Inc() // the unwritten rows are the store's Dropped
			s.eventsLog().Emit("service", "service_archive_error", 0, eventlog.A("error", err.Error()))
			archErr = fmt.Errorf("service: archiving: %w", err)
		}
	}
	s.m.records.Add(uint64(len(kept)))
	// Traffic still arriving for victims under an announced rule is
	// the attack volume a deployed FlowSpec filter would have dropped
	// upstream — record it as observed suppression for the paper-style
	// suppression ratio. No-op (one atomic load) with no active rules.
	s.mit.observeSuppressed(kept)
	b := pipe.Batch{Recs: kept}
	if err := s.fan.Process(&b); err != nil {
		return err
	}
	return cmp.Or(s.handOverLocked(start), archErr)
}

// handOverLocked gives idle shards their partial slabs when the
// hand-over budget allows: a token bucket written as GCRA, refilling
// one hand-over per handOverEvery and holding up to handOverBurst of
// them, so after an idle spell up to three go back to back and the
// long-run rate is two per millisecond (moderation: waking workers on
// every datagram cost saturated throughput 8–12 %, DESIGN.md §11). No
// timer: a trailing batch waits for the next Ingest, Checkpoint, Drain
// or Serve evaluation tick. now is the Ingest call's entry time — the
// clock read the detect histogram already paid for.
func (s *Service) handOverLocked(now time.Time) error {
	if now.Before(s.handOverAt.Add(-handOverBurst)) {
		return nil
	}
	if now.After(s.handOverAt) {
		s.handOverAt = now
	}
	s.handOverAt = s.handOverAt.Add(handOverEvery)
	s.m.partialFlushes.Inc()
	return s.fan.FlushIdle()
}

// The hand-over budget: one partial hand-over per handOverEvery on
// average, with handOverBurst of credit after an idle spell.
const (
	handOverEvery = 500 * time.Microsecond
	handOverBurst = time.Millisecond
)

// handOverTrailing is the evaluation tick's share of the hand-over
// policy: it gives idle shards whatever a quiet exporter's last
// datagrams left in their slabs. It runs at most once per tick, so it
// does not draw on the Ingest budget; once draining, Drain has handed
// everything over.
func (s *Service) handOverTrailing() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.m.partialFlushes.Inc()
	_ = s.fan.FlushIdle() // a failed stage is reported by the next Ingest and by Drain
}

// checkpoint quiesces the pipeline and atomically publishes a
// snapshot: the archive is sealed (making its durable count the exact
// replay skip point), every shard is advanced to the global watermark
// (so the snapshot is shard-count independent), and the monitor state
// plus pipeline position go to disk via write-temp/fsync/rename. A
// failed attempt leaves the previous checkpoint intact and is counted
// in service_checkpoint_failures_total. Returns the snapshot size.
func (s *Service) checkpoint() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

func (s *Service) checkpointLocked() (int64, error) {
	if s.opts.CheckpointDir == "" {
		return 0, errors.New("service: no checkpoint directory configured")
	}
	var size int64
	err := s.fan.Barrier(func() error {
		var durable uint64
		if st := s.opts.Store; st != nil {
			if err := st.Seal(); err != nil {
				return fmt.Errorf("service: sealing archive: %w", err)
			}
			// Count durable records from the manifest, not the store's
			// per-instance counter: the manifest survives restarts, and
			// after Seal it covers exactly the records a Scan returns —
			// so the same stream yields the same watermark whether or
			// not the daemon was restarted along the way.
			for _, e := range st.Segments() {
				durable += e.Records
			}
		}
		s.monitor.AdvanceAll(s.fan.Watermark())
		cp := &Checkpoint{
			Watermark:    s.fan.Watermark(),
			Seq:          s.fan.Seq(),
			StoreDurable: durable,
			Config:       s.monitor.Config(),
			Monitor:      s.monitor.Snapshot(),
		}
		n, err := saveCheckpoint(s.opts.CheckpointDir, cp, s.opts.WriteFault)
		if err != nil {
			return err
		}
		size = n
		return nil
	})
	if err != nil {
		s.m.checkpointFailures.Inc()
		s.eventsLog().Emit("service", "service_checkpoint_failed", 0,
			eventlog.A("error", err.Error()))
		s.dumpIncident("checkpoint_failure")
		return 0, err
	}
	s.m.checkpoints.Inc()
	s.m.checkpointBytes.Set(float64(size))
	s.eventsLog().Emit("service", "service_checkpoint_saved", 0,
		eventlog.AInt("bytes", size))
	return size, nil
}

// Reload swaps the classification thresholds under the fan-out
// barrier — the SIGHUP path. In-flight state (victim table, markers,
// clocks) is kept; only the thresholds and the fan-out's watermark
// filter change. Sockets are untouched: reload happens entirely
// inside the running process.
func (s *Service) Reload(cfg classify.Config) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	err := s.fan.Barrier(func() error {
		s.monitor.SetConfig(cfg)
		return nil
	})
	if err == nil {
		s.m.reloads.Inc()
	}
	return err
}

// ReplayFromStore rebuilds monitor state from the flow archive after a
// restart: the first Restore().StoreDurable records (already reflected
// in the restored snapshot) are skipped, everything after is fed back
// through the pipeline. With the resumed watermark and sequence the
// replayed records are stamped exactly as the crashed process stamped
// them, so no record is double counted. The skip is exact because the
// archive is sealed at every checkpoint and scans are time-ordered —
// which assumes, as the store's partitioning does, broadly monotone
// record timestamps.
func (s *Service) ReplayFromStore() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opts.Store == nil {
		return 0, nil
	}
	if s.draining {
		return 0, ErrDraining
	}
	skip := s.restore.StoreDurable
	var replayed uint64
	_, err := s.opts.Store.ScanOrdered(flowstore.Query{}, func(b *pipe.Batch) error {
		defer b.Release()
		n := uint64(b.Len())
		if skip >= n {
			skip -= n
			return nil
		}
		if skip > 0 {
			// The checkpoint falls inside this batch: replay its tail.
			tail := pipe.NewColsBatch()
			defer tail.Release()
			tail.Cols.AppendRange(b.Cols, int(skip), int(n))
			b, n, skip = tail, n-skip, 0
		}
		replayed += n
		return s.fan.Process(b)
	})
	s.m.replayed.Add(replayed)
	s.restore.Replayed += replayed
	return replayed, err
}

// evaluate samples the detection-latency SLO and the ingest queue and
// feeds the shed ladder. Call it periodically (Serve does). The SLO
// verdict is a multi-window burn-rate evaluation (see burn.go), not a
// raw p99 comparison: both the fast and slow windows must burn the
// error budget faster than burnThreshold. Breach edges and ladder
// escalations are recorded as events and trigger incident dumps.
func (s *Service) evaluate() ShedLevel {
	snap := s.detect.Snapshot()
	p99 := snap.Quantile(0.99)
	if math.IsNaN(p99) {
		p99 = 0
	}
	s.m.sloP99.Set(p99)
	target := s.shed.opts.TargetP99.Seconds()
	fast, slow, breach, edge := s.burn.observe(snap.Count, badCount(snap, target))
	s.m.burnFast.Set(fast)
	s.m.burnSlow.Set(slow)
	if edge {
		if breach {
			s.eventsLog().Emit("service", "service_slo_burn_breach", 0,
				eventlog.AFloat("fast_burn", fast),
				eventlog.AFloat("slow_burn", slow),
				eventlog.AFloat("target_p99_seconds", target))
			s.dumpIncident("slo_burn")
		} else {
			s.eventsLog().Emit("service", "service_slo_burn_recovered", 0,
				eventlog.AFloat("fast_burn", fast),
				eventlog.AFloat("slow_burn", slow))
		}
	}
	var frac float64
	if s.opts.QueueDepth != nil {
		if d, c := s.opts.QueueDepth(); c > 0 {
			frac = float64(d) / float64(c)
		}
	}
	before := s.shed.current()
	lvl := s.shed.observe(breach, frac)
	if lvl > before {
		s.eventsLog().Emit("service", "service_shed_escalated", 0,
			eventlog.A("level", lvl.String()),
			eventlog.AFloat("queue_frac", frac))
		s.dumpIncident("shed_escalation")
	}
	return lvl
}

// Drain is the SIGTERM path: refuse new records, publish a final
// checkpoint (when configured; otherwise seal the archive), close the
// fan-out — flushing every shard queue — and withdraw all announced
// mitigations. Idempotent: later calls return the first report.
func (s *Service) Drain() (*DrainReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drainRep != nil {
		return s.drainRep, s.drainErr
	}
	s.draining = true
	s.eventsLog().Emit("service", "service_drain_begun", 0)
	rep := &DrainReport{}
	var firstErr error
	if s.opts.CheckpointDir != "" {
		if _, err := s.checkpointLocked(); err != nil {
			firstErr = err
		} else {
			rep.Checkpointed = true
		}
	} else if s.opts.Store != nil {
		if err := s.opts.Store.Seal(); err != nil {
			firstErr = err
		}
	}
	if err := s.fan.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	rep.Withdrawn = s.mit.withdrawAll()
	s.m.drains.Inc()
	rep.Monitor = s.monitor.Stats()
	rep.Service = s.stats()
	s.drainRep, s.drainErr = rep, firstErr
	// Dump after the withdrawals so the incident file carries each
	// attack's complete lifecycle, announcement through retraction.
	s.dumpIncident("drain")
	return rep, firstErr
}

// Alerts returns every alert raised, in global stream order. Call
// only after Drain (the fan-out must have closed).
//
//bsvet:allow deadcode oracle: TestCheckpointRestoreMatchesUninterrupted and TestCheckpointCrashAtEveryWriteOffset read the daemon's alert set
func (s *Service) Alerts() []classify.Alert { return s.monitor.Alerts() }

// ActiveRules lists the announced FlowSpec mitigations.
//
//bsvet:allow deadcode oracle: TestIncidentDumpReconstructsLifecycle and TestMitigationAnnounceAndWithdraw read the announced rules
func (s *Service) ActiveRules() []bgp.FlowSpecRule { return s.mit.activeRules() }

// MonitorStats returns the embedded monitor's accounting.
//
//bsvet:allow deadcode oracle: TestCheckpointRestoreMatchesUninterrupted and TestIngestUnderShedLevels read the monitor accounting
func (s *Service) MonitorStats() classify.MonitorStats { return s.monitor.Stats() }

// Health condenses the daemon's state into an operational verdict.
func (s *Service) Health() HealthReport {
	s.mu.Lock()
	draining := s.draining
	h := s.monitor.Health()
	s.mu.Unlock()
	return HealthReport{
		Monitor:     h,
		Shed:        s.shed.current(),
		Draining:    draining,
		ActiveRules: len(s.mit.activeRules()),
	}
}

// Serve runs the daemon's periodic duties — checkpoints, and SLO
// evaluations each followed by a hand-over of idle shards' partial
// slabs, so a quiet exporter's last records go out at the first tick
// that finds their shard idle — until ctx is cancelled. Checkpoint
// failures are accounted (the previous snapshot stays valid) and
// serving continues. Ingest keeps running concurrently; cancel ctx and
// then call Drain for a graceful shutdown.
func (s *Service) Serve(ctx context.Context, checkpointEvery, evaluateEvery time.Duration) {
	var ckptC, evalC <-chan time.Time
	if checkpointEvery > 0 && s.opts.CheckpointDir != "" {
		t := time.NewTicker(checkpointEvery) //bsvet:allow determinism checkpoint cadence is wall-clock by design; tests drive Checkpoint directly
		defer t.Stop()
		ckptC = t.C
	}
	if evaluateEvery > 0 {
		t := time.NewTicker(evaluateEvery) //bsvet:allow determinism the latency SLO measures host time by design; tests drive Evaluate directly
		defer t.Stop()
		evalC = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-ckptC:
			_, _ = s.checkpoint()
		case <-evalC:
			s.evaluate()
			s.handOverTrailing()
		}
	}
}
