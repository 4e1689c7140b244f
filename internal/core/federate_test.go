package core

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"booterscope/internal/classify"
	"booterscope/internal/federation"
	"booterscope/internal/flow"
	"booterscope/internal/flowstore"
	"booterscope/internal/takedown"
	"booterscope/internal/telemetry/eventlog"
	"booterscope/internal/trafficgen"
)

// fedStudy builds a small fixed-seed study for federation tests.
func fedStudy(days int, scale float64) *TakedownStudy {
	cfg := trafficgen.Config{
		Start:    TakedownDate.Add(-2 * 24 * time.Hour),
		Days:     days,
		Takedown: TakedownDate,
		Seed:     23,
		Scale:    scale,
	}
	return &TakedownStudy{Scenario: trafficgen.NewScenario(cfg), Event: takedown.FBITakedown}
}

// writeFed writes a federated archive (with union) and opens its
// coordinator.
func writeFed(t testing.TB, days int, scale float64) (string, *federation.Coordinator) {
	t.Helper()
	dir := t.TempDir()
	study := fedStudy(days, scale)
	m, err := study.WriteFederatedArchive(dir, flowstore.Options{NoSync: true}, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	c, err := federation.Open(m, federation.Options{StoreOptions: flowstore.Options{NoSync: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return dir, c
}

// TestFederatedMatchesMerged is the federation's ground-truth gate: a
// federated scan over N per-vantage archives is byte-identical to a
// plain scan over the single union archive holding the same records —
// same record sequence, same matched/scanned record totals, and
// identical downstream classification.
func TestFederatedMatchesMerged(t *testing.T) {
	dir, c := writeFed(t, 2, 0.1)

	var fedRecs []flow.Record
	fedStats, err := c.Scan(flowstore.Query{}, func(_ string, r *flow.Record) error {
		fedRecs = append(fedRecs, *r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	union, err := flowstore.Open(filepath.Join(dir, "union"), flowstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer union.Close()
	var unionRecs []flow.Record
	unionStats, err := union.Scan(flowstore.Query{}, func(r *flow.Record) error {
		unionRecs = append(unionRecs, *r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(fedRecs) == 0 {
		t.Fatal("federated scan returned nothing")
	}
	if len(fedRecs) != len(unionRecs) {
		t.Fatalf("federated %d records, union %d", len(fedRecs), len(unionRecs))
	}
	for i := range fedRecs {
		if !reflect.DeepEqual(fedRecs[i], unionRecs[i]) {
			t.Fatalf("record %d diverges:\nfed   = %+v\nunion = %+v", i, fedRecs[i], unionRecs[i])
		}
	}
	// Stats modulo the per-vantage split: record-level totals must
	// match exactly; segment/block geometry legitimately differs.
	if fedStats.Total.RecordsMatched != unionStats.RecordsMatched ||
		fedStats.Total.RecordsScanned != unionStats.RecordsScanned {
		t.Fatalf("record accounting diverges:\nfed   = %+v\nunion = %+v", fedStats.Total, unionStats)
	}

	// Identical record sequences must classify identically.
	classifyStream := func(recs []flow.Record) []classify.AttackSummary {
		m := classify.NewMonitor(classify.Config{})
		m.TrackAttackLog = true
		for i := range recs {
			m.Add(&recs[i])
		}
		return m.AttackLog()
	}
	fedLog := classifyStream(fedRecs)
	unionLog := classifyStream(unionRecs)
	if len(fedLog) == 0 {
		t.Fatal("no attacks classified from the federated stream")
	}
	if !reflect.DeepEqual(fedLog, unionLog) {
		t.Fatalf("classification diverges: %d vs %d attacks", len(fedLog), len(unionLog))
	}
}

// TestFederatedScanDeterministic: two federated scans over the same
// archives produce the identical stream and stats.
func TestFederatedScanDeterministic(t *testing.T) {
	_, c := writeFed(t, 2, 0.05)
	run := func() ([]flow.Record, federation.FederatedStats) {
		var recs []flow.Record
		stats, err := c.Scan(flowstore.Query{}, func(_ string, r *flow.Record) error {
			recs = append(recs, *r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return recs, stats
	}
	r1, s1 := run()
	r2, s2 := run()
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("federated scans differ between identical runs")
	}
}

// TestFederatedCorrelationDemo reproduces the paper's IXP-vs-ISP
// disagreement end-to-end from archives on disk: the correlator must
// find at least one attack seen at the IXP but missing at the tier-1
// ISP (whose customer cone routes only part of the address space), and
// the whole report must be reproducible offline.
func TestFederatedCorrelationDemo(t *testing.T) {
	dir, c := writeFed(t, 3, 0.3)
	ev := eventlog.New(1024)
	report, err := c.Correlate(federation.CorrelateOptions{Events: ev})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Attacks) == 0 {
		t.Fatal("correlation found no attacks")
	}
	var ixpNotTier1 int
	for _, a := range report.Attacks {
		seenIXP, missingTier1 := false, false
		for _, v := range a.SeenAt {
			if v == "ixp" {
				seenIXP = true
			}
		}
		for _, v := range a.MissingAt {
			if v == "tier1" {
				missingTier1 = true
			}
		}
		if seenIXP && missingTier1 {
			ixpNotTier1++
		}
	}
	if ixpNotTier1 == 0 {
		t.Fatalf("no attack seen at the IXP but missing at tier-1 among %d joined attacks", len(report.Attacks))
	}
	if report.Disagreements == 0 {
		t.Fatal("report counts no disagreements")
	}
	var joinEvents int
	for _, e := range ev.Snapshot() {
		if e.Kind == "federation_attack_joined" {
			joinEvents++
		}
	}
	if joinEvents != len(report.Attacks) {
		t.Fatalf("emitted %d join events for %d attacks", joinEvents, len(report.Attacks))
	}

	// Offline reproducibility: a fresh coordinator over the same
	// manifest yields the identical report.
	m, err := federation.LoadManifest(filepath.Join(dir, "vantages.json"))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := federation.Open(m, federation.Options{StoreOptions: flowstore.Options{NoSync: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	report2, err := c2.Correlate(federation.CorrelateOptions{Events: eventlog.New(1024)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(report, report2) {
		t.Fatal("correlation reports differ across coordinators over the same archives")
	}
}
