package service

import (
	"errors"
	"net/http/httptest"
	"net/netip"
	"os"
	"strings"
	"testing"
	"time"

	"booterscope/internal/bgp"
	"booterscope/internal/classify"
	"booterscope/internal/flow"
	"booterscope/internal/flowstore"
	"booterscope/internal/telemetry"
	"booterscope/internal/telemetry/eventlog"
)

func TestDrainRefusesRecordsAndIsIdempotent(t *testing.T) {
	recs := genStream(4, 4_000)
	dir, storeDir := t.TempDir(), t.TempDir()
	svc := openService(t, dir, storeDir, testCfg, Options{})
	feed(t, svc, recs[:3_000])

	rep, err := svc.Drain()
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !rep.Checkpointed {
		t.Fatal("drain did not publish a final checkpoint")
	}
	if rep.Service.Drains != 1 || rep.Monitor.Records != 3_000 {
		t.Fatalf("drain report accounting = %+v / %+v", rep.Service, rep.Monitor)
	}
	// The final checkpoint is complete and valid on disk.
	b, err := os.ReadFile(checkpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeCheckpoint(b); err != nil {
		t.Fatalf("final checkpoint does not decode: %v", err)
	}

	// Records arriving after drain are refused loudly and accounted.
	if err := svc.Ingest(recs[3_000:]); !errors.Is(err, ErrDraining) {
		t.Fatalf("Ingest after drain = %v, want ErrDraining", err)
	}
	if got := svc.stats().RefusedRecords; got != 1_000 {
		t.Fatalf("refused records = %d, want 1000", got)
	}
	if err := svc.Reload(testCfg); !errors.Is(err, ErrDraining) {
		t.Fatalf("Reload after drain = %v, want ErrDraining", err)
	}
	if _, err := svc.ReplayFromStore(); !errors.Is(err, ErrDraining) {
		t.Fatalf("ReplayFromStore after drain = %v, want ErrDraining", err)
	}
	if !svc.Health().Draining {
		t.Fatal("health does not report draining")
	}

	rep2, err := svc.Drain()
	if err != nil || rep2 != rep {
		t.Fatalf("second Drain = %p, %v; want the first report", rep2, err)
	}
}

// TestReloadSwapsThresholdsAndPersists pins the SIGHUP path: thresholds
// swap in-process without touching pipeline state, and the active
// config rides the next checkpoint across a restart.
func TestReloadSwapsThresholdsAndPersists(t *testing.T) {
	strict := classify.Config{MinRateBps: 1e15, MinSources: 1 << 20}
	recs := genStream(5, 12_000)
	half := len(recs) / 2
	dir := t.TempDir()
	svc := openService(t, dir, "", strict, Options{})

	feed(t, svc, recs[:half])
	if got := quiesceAlerts(t, svc); len(got) != 0 {
		t.Fatalf("strict thresholds raised %d alerts", len(got))
	}

	if err := svc.Reload(testCfg); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if got := svc.Config(); got.MinRateBps != testCfg.MinRateBps || got.MinSources != testCfg.MinSources {
		t.Fatalf("active config after reload = %+v", got)
	}
	if svc.stats().Reloads != 1 {
		t.Fatalf("reloads = %d, want 1", svc.stats().Reloads)
	}
	feed(t, svc, recs[half:])
	if got := quiesceAlerts(t, svc); len(got) == 0 {
		t.Fatal("reloaded thresholds raised no alerts on attack traffic")
	}
	mustCheckpoint(t, svc)

	// A restart configured with the old strict thresholds restores the
	// reloaded ones from the checkpoint — operator intent survives.
	svc2 := openService(t, dir, "", strict, Options{})
	if !svc2.Restore().Restored {
		t.Fatal("restart did not restore the checkpoint")
	}
	if got := svc2.Config(); got.MinRateBps != testCfg.MinRateBps || got.MinSources != testCfg.MinSources {
		t.Fatalf("restored config = %+v, want the reloaded thresholds", got)
	}
}

func TestShedLadderHysteresis(t *testing.T) {
	sh := newShedder(SLOOptions{TargetP99: 100 * time.Millisecond}, newMetrics())
	// The burn evaluator now decides SLO breaches; the ladder takes a
	// boolean verdict per evaluation.
	slow, fast := true, false

	// stepUpAfter is 1: every breach escalates one rung.
	if got := sh.observe(slow, 0); got != ShedSample {
		t.Fatalf("first breach = %v, want ShedSample", got)
	}
	// A single healthy sample does not de-escalate (stepDownAfter is 3).
	if got := sh.observe(fast, 0); got != ShedSample {
		t.Fatalf("single healthy sample de-escalated to %v", got)
	}
	if got := sh.observe(slow, 0); got != ShedArchive {
		t.Fatalf("escalation = %v, want ShedArchive", got)
	}
	// The ladder tops out: classification is never shed.
	for i := 0; i < 5; i++ {
		if got := sh.observe(slow, 0); got != ShedArchive {
			t.Fatalf("ladder escalated past ShedArchive: %v", got)
		}
	}
	// A breach resets the healthy streak: two healthy samples, a breach
	// and two more healthy samples do not step down.
	sh.observe(fast, 0)
	sh.observe(fast, 0)
	sh.observe(slow, 0)
	sh.observe(fast, 0)
	if got := sh.observe(fast, 0); got != ShedArchive {
		t.Fatalf("healthy streak did not reset: %v", got)
	}
	// Queue pressure alone is a breach too.
	sh2 := newShedder(SLOOptions{}, newMetrics())
	if got := sh2.observe(false, 0.95); got != ShedSample {
		t.Fatalf("queue breach = %v, want ShedSample", got)
	}
	// Recovery walks down one rung per stepDownAfter healthy streak.
	if got := sh.observe(fast, 0); got != ShedSample {
		t.Fatalf("recovery = %v, want ShedSample", got)
	}
	sh.observe(fast, 0)
	sh.observe(fast, 0)
	if got := sh.observe(fast, 0); got != ShedNone {
		t.Fatalf("recovery = %v, want ShedNone", got)
	}
}

// TestIngestUnderShedLevels pins the degradation semantics on the
// ingest path: ShedSample keeps 1-in-N with SamplingRate scaled by N
// (unbiased rates), ShedArchive skips only the archive append — the
// classifier sees every kept record at every level.
func TestIngestUnderShedLevels(t *testing.T) {
	recs := genStream(6, 1_200)
	for i := range recs {
		recs[i].SamplingRate = 1
	}
	dir, storeDir := t.TempDir(), t.TempDir()
	svc := openService(t, dir, storeDir, testCfg, Options{})

	svc.shed.level.Store(int32(ShedSample))
	if err := svc.Ingest(recs[:400]); err != nil {
		t.Fatal(err)
	}
	quiesceAlerts(t, svc) // wait out the shard queues before reading stats
	st := svc.stats()
	if st.SampledOutRecords != 300 || st.IngestedRecords != 100 {
		t.Fatalf("ShedSample accounting = %+v, want 300 sampled out / 100 kept", st)
	}
	if got := svc.MonitorStats().Records; got != 100 {
		t.Fatalf("classifier saw %d records, want 100", got)
	}
	if got := svc.opts.Store.Stats().RecordsAppended; got != 100 {
		t.Fatalf("archive got %d records, want 100", got)
	}

	svc.shed.level.Store(int32(ShedArchive))
	if err := svc.Ingest(recs[400:800]); err != nil {
		t.Fatal(err)
	}
	quiesceAlerts(t, svc)
	st = svc.stats()
	if st.ArchiveShedRecords != 100 || st.SampledOutRecords != 600 {
		t.Fatalf("ShedArchive accounting = %+v", st)
	}
	if got := svc.opts.Store.Stats().RecordsAppended; got != 100 {
		t.Fatalf("archive grew to %d under ShedArchive", got)
	}
	if got := svc.MonitorStats().Records; got != 200 {
		t.Fatalf("classifier saw %d records, want 200 — classification must never be shed", got)
	}

	// Kept records carry the scaled sampling rate into the archive.
	svc.shed.level.Store(int32(ShedNone))
	if err := svc.opts.Store.Seal(); err != nil {
		t.Fatal(err)
	}
	var scaled, total int
	if _, err := svc.opts.Store.Scan(flowstore.Query{}, func(r *flow.Record) error {
		total++
		if r.SamplingRate == 4 {
			scaled++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total != 100 || scaled != 100 {
		t.Fatalf("archived records: %d total, %d with SamplingRate 4; want 100/100", total, scaled)
	}
}

func TestEvaluateWalksLadderFromQueuePressure(t *testing.T) {
	depth := 0
	svc := openService(t, t.TempDir(), "", testCfg, Options{
		QueueDepth: func() (int, int) { return depth, 100 },
		SLO:        SLOOptions{TargetP99: time.Second},
	})
	if got := svc.evaluate(); got != ShedNone {
		t.Fatalf("idle evaluation = %v", got)
	}
	depth = 90 // past the 0.8 high-watermark
	if got := svc.evaluate(); got != ShedSample {
		t.Fatalf("overload evaluation = %v, want ShedSample", got)
	}
	if got := svc.evaluate(); got != ShedArchive {
		t.Fatalf("sustained overload = %v, want ShedArchive", got)
	}
	if got := svc.Health().Shed; got != ShedArchive {
		t.Fatalf("health shed level = %v", got)
	}
	if got := svc.stats().SLOBreaches; got != 2 {
		t.Fatalf("SLO breaches = %d, want 2", got)
	}
	depth = 0
	svc.evaluate()
	svc.evaluate()
	if got := svc.evaluate(); got != ShedSample {
		t.Fatalf("recovery = %v, want ShedSample", got)
	}
	svc.evaluate()
	svc.evaluate()
	if got := svc.evaluate(); got != ShedNone {
		t.Fatalf("recovery = %v, want ShedNone", got)
	}
}

// TestMitigationAnnounceAndWithdraw pins the detect→mitigate loop: a
// sustained alert announces one FlowSpec discard rule per victim, and
// drain withdraws everything.
func TestMitigationAnnounceAndWithdraw(t *testing.T) {
	var announced, withdrawn []bgp.FlowSpecRule
	recs := genStream(7, 8_000)
	svc := openService(t, t.TempDir(), "", testCfg, Options{
		Mitigation: MitigationOptions{
			Enabled:       true,
			SustainAlerts: 1,
			Announce:      func(r bgp.FlowSpecRule) { announced = append(announced, r) },
			Withdraw:      func(r bgp.FlowSpecRule) { withdrawn = append(withdrawn, r) },
		},
	})
	feed(t, svc, recs)
	quiesceAlerts(t, svc) // alerts arrive from shard workers; quiesce first

	active := svc.ActiveRules()
	if len(active) == 0 {
		t.Fatal("no mitigations announced under attack traffic")
	}
	st := svc.stats()
	if uint64(len(active)) != st.MitigationAnnounced || uint64(len(announced)) != st.MitigationAnnounced {
		t.Fatalf("announce accounting: %d active, %d callback, stats %+v", len(active), len(announced), st)
	}
	if got := svc.Health().ActiveRules; got != len(active) {
		t.Fatalf("health active rules = %d, want %d", got, len(active))
	}
	for _, r := range active {
		if r.Protocol != 17 || r.SrcPort != classify.NTPPort || r.Dst.Bits() != 32 || r.MinPacketLen != int(classify.OptimisticSizeThreshold) {
			t.Fatalf("rule not scoped to NTP amplification at the victim /32: %+v", r)
		}
		if _, err := r.Encode(); err != nil {
			t.Fatalf("announced rule does not encode: %v", err)
		}
	}

	rep, err := svc.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Withdrawn) != len(active) || len(withdrawn) != len(active) {
		t.Fatalf("drain withdrew %d (callback %d), want %d", len(rep.Withdrawn), len(withdrawn), len(active))
	}
	if got := len(svc.ActiveRules()); got != 0 {
		t.Fatalf("%d rules still active after drain", got)
	}
	if st := svc.stats(); st.MitigationWithdrawn != uint64(len(active)) {
		t.Fatalf("withdraw accounting = %+v", st)
	}
}

func TestMitigationSkipsNonIPv4Victims(t *testing.T) {
	m := newMetrics()
	mit := newMitigator(MitigationOptions{Enabled: true, SustainAlerts: 1}, m, func() *eventlog.Log { return nil })
	mit.onAlert(classify.Alert{Victim: netip.MustParseAddr("2001:db8::1")})
	if got := len(mit.activeRules()); got != 0 {
		t.Fatalf("%d rules announced for an IPv6 victim", got)
	}
	if got := m.mitigationSkipped.Value(); got != 1 {
		t.Fatalf("skipped counter = %d, want 1 — skips must be accounted", got)
	}
}

// TestServiceMetricsRegistered pins the scrape surface: every service_*
// series and the detection-latency histogram appear on the registry the
// daemon was built with.
func TestServiceMetricsRegistered(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc := openService(t, t.TempDir(), "", testCfg, Options{Registry: reg})
	feed(t, svc, genStream(8, 500))
	if _, err := svc.Drain(); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	reg.PrometheusHandler().ServeHTTP(rec, nil)
	out := rec.Body.String()
	for _, name := range []string{
		"service_ingest_records_total",
		"service_shed_sampled_records_total",
		"service_shed_archive_records_total",
		"service_drain_refused_records_total",
		"service_archive_errors_total",
		"service_partial_flushes_total",
		"service_checkpoints_total",
		"service_checkpoint_failures_total",
		"service_checkpoint_bytes",
		"service_restores_total",
		"service_restore_corrupt_total",
		"service_replayed_records_total",
		"service_reloads_total",
		"service_drains_total",
		"service_slo_breaches_total",
		"service_slo_detect_p99_seconds",
		"service_shed_level",
		"service_mitigation_rules_active",
		"service_mitigation_announced_total",
		"service_mitigation_withdrawn_total",
		"service_mitigation_skipped_total",
		"classify_monitor_records_total",
		"service_detect_seconds",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("scrape is missing %s", name)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["service_ingest_records_total"] != 500 {
		t.Fatalf("scraped ingest counter = %d, want 500", snap.Counters["service_ingest_records_total"])
	}
	// One observation per Ingest call, refused ones included: feed made
	// two (400 + 100 records), the post-drain call is the third.
	if err := svc.Ingest(genStream(8, 1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("Ingest after Drain = %v, want ErrDraining", err)
	}
	if got := reg.Snapshot().Histograms["service_detect_seconds"].Count; got != 3 {
		t.Fatalf("service_detect_seconds holds %d observations after 3 Ingest calls", got)
	}
}
