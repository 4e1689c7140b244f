package service

import "booterscope/internal/telemetry"

// metrics are the daemon's accounting counters as telemetry atomics;
// ServiceStats is a thin view over them, and RegisterTelemetry
// attaches the same objects to the registry, so a scrape and Stats()
// can never disagree (the repo-wide convention of DESIGN.md §6).
type metrics struct {
	records        *telemetry.Counter
	sampledOut     *telemetry.Counter
	archiveShed    *telemetry.Counter
	refused        *telemetry.Counter
	archiveErrors  *telemetry.Counter
	partialFlushes *telemetry.Counter

	checkpoints        *telemetry.Counter
	checkpointFailures *telemetry.Counter
	checkpointBytes    *telemetry.Gauge

	restores       *telemetry.Counter
	restoreCorrupt *telemetry.Counter
	replayed       *telemetry.Counter

	reloads *telemetry.Counter
	drains  *telemetry.Counter

	sloBreaches     *telemetry.Counter
	sloP99          *telemetry.Gauge
	burnFast        *telemetry.Gauge
	burnSlow        *telemetry.Gauge
	shedLevel       *telemetry.Gauge
	shedTransitions *telemetry.CounterVec

	suppressedRecords *telemetry.Counter
	suppressedBytes   *telemetry.Counter

	mitigationActive    *telemetry.Gauge
	mitigationAnnounced *telemetry.Counter
	mitigationWithdrawn *telemetry.Counter
	mitigationSkipped   *telemetry.Counter
}

func newMetrics() *metrics {
	return &metrics{
		records:             telemetry.NewCounter(),
		sampledOut:          telemetry.NewCounter(),
		archiveShed:         telemetry.NewCounter(),
		refused:             telemetry.NewCounter(),
		archiveErrors:       telemetry.NewCounter(),
		partialFlushes:      telemetry.NewCounter(),
		checkpoints:         telemetry.NewCounter(),
		checkpointFailures:  telemetry.NewCounter(),
		checkpointBytes:     telemetry.NewGauge(),
		restores:            telemetry.NewCounter(),
		restoreCorrupt:      telemetry.NewCounter(),
		replayed:            telemetry.NewCounter(),
		reloads:             telemetry.NewCounter(),
		drains:              telemetry.NewCounter(),
		sloBreaches:         telemetry.NewCounter(),
		sloP99:              telemetry.NewGauge(),
		burnFast:            telemetry.NewGauge(),
		burnSlow:            telemetry.NewGauge(),
		suppressedRecords:   telemetry.NewCounter(),
		suppressedBytes:     telemetry.NewCounter(),
		shedLevel:           telemetry.NewGauge(),
		shedTransitions:     telemetry.NewCounterVec("level", "direction").SetMaxCardinality(16),
		mitigationActive:    telemetry.NewGauge(),
		mitigationAnnounced: telemetry.NewCounter(),
		mitigationWithdrawn: telemetry.NewCounter(),
		mitigationSkipped:   telemetry.NewCounter(),
	}
}

// registerTelemetry attaches the daemon's accounting to r under the
// service_* names (plus the embedded monitor's classify_monitor_*
// names). New calls it on the configured registry; call it manually
// only when mirroring the service onto a second registry.
func (s *Service) registerTelemetry(r *telemetry.Registry) {
	m := s.m
	r.MustRegister("service_ingest_records_total", "records accepted into the detection path", m.records)
	r.MustRegister("service_shed_sampled_records_total", "records sampled out at ShedSample (rates stay unbiased via SamplingRate scaling)", m.sampledOut)
	r.MustRegister("service_shed_archive_records_total", "records not archived at ShedArchive (classification still ran)", m.archiveShed)
	r.MustRegister("service_drain_refused_records_total", "records refused after drain began", m.refused)
	r.MustRegister("service_archive_errors_total", "ingest calls whose archive append failed (the batch was still classified)", m.archiveErrors)
	r.MustRegister("service_partial_flushes_total", "partial-slab hand-overs to idle shards (Ingest: two per millisecond, bursts of three; Serve: one per evaluation tick)", m.partialFlushes)
	r.MustRegister("service_detect_seconds", "duration of one Ingest call: archive append and routing (the latency the SLO evaluates)", s.detect)
	r.MustRegister("service_checkpoints_total", "checkpoints published", m.checkpoints)
	r.MustRegister("service_checkpoint_failures_total", "checkpoint attempts that failed (previous snapshot kept)", m.checkpointFailures)
	r.MustRegister("service_checkpoint_bytes", "size of the last published checkpoint", m.checkpointBytes)
	r.MustRegister("service_restores_total", "restarts that restored monitor state from a checkpoint", m.restores)
	r.MustRegister("service_restore_corrupt_total", "restarts that found a corrupt checkpoint and cold-started", m.restoreCorrupt)
	r.MustRegister("service_replayed_records_total", "archive records replayed past the checkpoint watermark on restart", m.replayed)
	r.MustRegister("service_reloads_total", "threshold reloads applied (SIGHUP)", m.reloads)
	r.MustRegister("service_drains_total", "graceful drains completed", m.drains)
	r.MustRegister("service_slo_breaches_total", "overload evaluations that breached the latency or queue budget", m.sloBreaches)
	r.MustRegister("service_slo_detect_p99_seconds", "p99 of service_detect_seconds at the last evaluation", m.sloP99)
	r.MustRegister("service_slo_burn_rate_fast", "error-budget burn rate over the fast window at the last evaluation", m.burnFast)
	r.MustRegister("service_slo_burn_rate_slow", "error-budget burn rate over the slow window at the last evaluation", m.burnSlow)
	r.MustRegister("service_suppressed_records_total", "records matching an active FlowSpec rule (traffic a deployed filter would discard)", m.suppressedRecords)
	r.MustRegister("service_suppressed_bytes_total", "scaled bytes matching an active FlowSpec rule", m.suppressedBytes)
	r.MustRegister("service_shed_level", "active overload-degradation ladder rung (0 none, 1 sample, 2 archive)", m.shedLevel)
	r.MustRegister("service_shed_transitions_total", "ladder transitions by target level and direction", m.shedTransitions)
	r.MustRegister("service_mitigation_rules_active", "FlowSpec rules currently announced", m.mitigationActive)
	r.MustRegister("service_mitigation_announced_total", "FlowSpec rules announced", m.mitigationAnnounced)
	r.MustRegister("service_mitigation_withdrawn_total", "FlowSpec rules withdrawn", m.mitigationWithdrawn)
	r.MustRegister("service_mitigation_skipped_total", "mitigations skipped (non-IPv4 victim or unencodable rule)", m.mitigationSkipped)
	s.monitor.RegisterTelemetry(r)
}

// ServiceStats is a snapshot of the daemon's accounting — a view over
// the same telemetry atomics RegisterTelemetry exposes.
type ServiceStats struct {
	IngestedRecords     uint64
	SampledOutRecords   uint64
	ArchiveShedRecords  uint64
	RefusedRecords      uint64
	Checkpoints         uint64
	CheckpointFailures  uint64
	Restores            uint64
	ReplayedRecords     uint64
	Reloads             uint64
	Drains              uint64
	SLOBreaches         uint64
	ShedLevel           ShedLevel
	MitigationAnnounced uint64
	MitigationWithdrawn uint64
	MitigationSkipped   uint64
}

// stats returns the daemon's accounting snapshot.
func (s *Service) stats() ServiceStats {
	return ServiceStats{
		IngestedRecords:     s.m.records.Value(),
		SampledOutRecords:   s.m.sampledOut.Value(),
		ArchiveShedRecords:  s.m.archiveShed.Value(),
		RefusedRecords:      s.m.refused.Value(),
		Checkpoints:         s.m.checkpoints.Value(),
		CheckpointFailures:  s.m.checkpointFailures.Value(),
		Restores:            s.m.restores.Value(),
		ReplayedRecords:     s.m.replayed.Value(),
		Reloads:             s.m.reloads.Value(),
		Drains:              s.m.drains.Value(),
		SLOBreaches:         s.m.sloBreaches.Value(),
		ShedLevel:           s.shed.current(),
		MitigationAnnounced: s.m.mitigationAnnounced.Value(),
		MitigationWithdrawn: s.m.mitigationWithdrawn.Value(),
		MitigationSkipped:   s.m.mitigationSkipped.Value(),
	}
}
