package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"booterscope/internal/telemetry"
	"booterscope/internal/telemetry/debugserver"
	"booterscope/internal/telemetry/eventlog"
)

// TestIncidentDumpReconstructsLifecycle is the acceptance path end to
// end: a synthetic attack stream raises alerts and a FlowSpec rule,
// suppression is observed, a forced SLO burn breach triggers an
// incident dump, and the timeline reconstructed offline from the dump
// matches the live /attacks/{id} view exactly — same detection
// latency, same time to mitigate.
func TestIncidentDumpReconstructsLifecycle(t *testing.T) {
	ring := eventlog.New(1 << 14)
	incDir := t.TempDir()
	reg := telemetry.NewRegistry()
	svc := openService(t, t.TempDir(), "", testCfg, Options{
		Registry:    reg,
		Events:      ring,
		IncidentDir: incDir,
		Mitigation:  MitigationOptions{Enabled: true, SustainAlerts: 1},
	})

	recs := genStream(9, 6_000)
	feed(t, svc, recs[:4_000])
	if alerts := quiesceAlerts(t, svc); len(alerts) == 0 {
		t.Fatal("attack stream raised no alerts")
	}
	if len(svc.ActiveRules()) == 0 {
		t.Fatal("no FlowSpec rules announced")
	}
	// More attack traffic while rules are active: suppression events.
	feed(t, svc, recs[4_000:])
	quiesceAlerts(t, svc) // barrier: all shard-side events are in the ring

	// Force the burn breach: every detection over the 250ms target.
	for i := 0; i < 50; i++ {
		svc.detect.ObserveDuration(time.Second)
	}
	svc.evaluate()

	d, err := eventlog.LoadDump(filepath.Join(incDir, "incident-slo_burn.bsevt"))
	if err != nil {
		t.Fatalf("loading slo_burn dump: %v", err)
	}
	if d.Reason != "slo_burn" {
		t.Fatalf("dump reason = %q", d.Reason)
	}

	// The dump must contain the breach event and a full lifecycle.
	tls := eventlog.BuildTimelines(d.Events)
	if len(tls) == 0 {
		t.Fatal("dump reconstructs no attack timelines")
	}
	var id uint64
	for _, tl := range tls {
		if tl.AnnouncedMonoNanos != 0 && tl.SuppressedRecords > 0 {
			id = tl.AttackID
			break
		}
	}
	if id == 0 {
		t.Fatal("no timeline with both a FlowSpec announcement and observed suppression")
	}
	dumped := eventlog.TimelineFor(d.Events, id)
	if dumped.OpenedMonoNanos == 0 || dumped.AlertMonoNanos == 0 {
		t.Fatalf("timeline missing open/alert transitions: %+v", dumped)
	}
	wantDL := float64(dumped.AlertMonoNanos-dumped.OpenedMonoNanos) / 1e9
	if dumped.DetectionLatencySeconds != wantDL {
		t.Fatalf("detection latency = %v, want %v", dumped.DetectionLatencySeconds, wantDL)
	}
	wantTTM := float64(dumped.AnnouncedMonoNanos-dumped.AlertMonoNanos) / 1e9
	if dumped.TimeToMitigateSeconds != wantTTM {
		t.Fatalf("time to mitigate = %v, want %v", dumped.TimeToMitigateSeconds, wantTTM)
	}
	if dumped.SuppressionRatio <= 0 || dumped.SuppressionRatio >= 1 {
		t.Fatalf("suppression ratio = %v, want in (0,1)", dumped.SuppressionRatio)
	}

	// The live debug surface over the same ring must agree exactly.
	prev := eventlog.Active()
	eventlog.SetActive(ring)
	defer eventlog.SetActive(prev)
	srv, err := debugserver.Start("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/attacks/%d", srv.Addr(), id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /attacks/%d = %d", id, resp.StatusCode)
	}
	var live eventlog.Timeline
	if err := json.NewDecoder(resp.Body).Decode(&live); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, *dumped) {
		t.Fatalf("live /attacks/%d differs from dump reconstruction:\nlive: %+v\ndump: %+v", id, live, *dumped)
	}

	// /attacks lists the same attack; /events serves the ring.
	for _, ep := range []string{"/attacks", "/events"} {
		r2, err := http.Get("http://" + srv.Addr() + ep)
		if err != nil {
			t.Fatal(err)
		}
		if r2.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", ep, r2.StatusCode)
		}
		r2.Body.Close()
	}

	// Drain fires its own dump, carrying the withdrawals — the complete
	// lifecycle for post-mortem reading.
	if _, err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
	dd, err := eventlog.LoadDump(filepath.Join(incDir, "incident-drain.bsevt"))
	if err != nil {
		t.Fatalf("loading drain dump: %v", err)
	}
	final := eventlog.TimelineFor(dd.Events, id)
	if final == nil || final.WithdrawnMonoNanos == 0 {
		t.Fatalf("drain dump timeline missing withdrawal: %+v", final)
	}
}

// TestCheckpointFailureDumpsIncident pins the checkpoint-failure
// trigger: a checkpoint directory that stops being writable fails the
// save, emits the event, and dumps the ring.
func TestCheckpointFailureDumpsIncident(t *testing.T) {
	ring := eventlog.New(256)
	incDir := t.TempDir()
	ckptDir := t.TempDir()
	svc := openService(t, ckptDir, "", testCfg, Options{
		Events:      ring,
		IncidentDir: incDir,
	})
	defer func() { _, _ = svc.Drain() }()
	feed(t, svc, genStream(3, 500))

	// Make the checkpoint dir unwritable; root (CI containers) ignores
	// mode bits, so fall back to replacing it with a file.
	if err := os.Chmod(ckptDir, 0o500); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = os.Chmod(ckptDir, 0o755) }()
	if _, err := svc.checkpoint(); err == nil {
		_ = os.Chmod(ckptDir, 0o755)
		if err := os.RemoveAll(ckptDir); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ckptDir, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.checkpoint(); err == nil {
			t.Skip("cannot make checkpoint fail in this environment")
		}
	}

	d, err := eventlog.LoadDump(filepath.Join(incDir, "incident-checkpoint_failure.bsevt"))
	if err != nil {
		t.Fatalf("no checkpoint_failure dump: %v", err)
	}
	found := false
	for i := range d.Events {
		if d.Events[i].Kind == "service_checkpoint_failed" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("dump does not record the checkpoint failure event")
	}
}

// TestRecorderResolvedOnceAtNew pins Options.Events == nil: New takes
// the process-wide recorder as it is then, and the monitor shards, the
// mitigator and the daemon all keep emitting into that one recorder
// after SetActive installs another.
func TestRecorderResolvedOnceAtNew(t *testing.T) {
	atNew, later := eventlog.New(1<<14), eventlog.New(1<<14)
	prev := eventlog.Active()
	defer eventlog.SetActive(prev)
	eventlog.SetActive(atNew)
	svc := openService(t, t.TempDir(), "", testCfg, Options{
		Mitigation: MitigationOptions{Enabled: true, SustainAlerts: 1},
	})
	eventlog.SetActive(later)

	feed(t, svc, genStream(9, 4_000))
	if alerts := quiesceAlerts(t, svc); len(alerts) == 0 {
		t.Fatal("attack stream raised no alerts")
	}
	kinds := map[string]bool{}
	for _, e := range atNew.Snapshot() {
		kinds[e.Kind] = true
	}
	for _, k := range []string{"classify_attack_opened", "classify_alert_raised", "service_flowspec_announced"} {
		if !kinds[k] {
			t.Errorf("recorder active at New has no %s event", k)
		}
	}
	if n := later.Len(); n != 0 {
		t.Errorf("recorder installed after New got %d events, want 0", n)
	}
}
