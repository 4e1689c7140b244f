package federation

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"booterscope/internal/classify"
	"booterscope/internal/flow"
	"booterscope/internal/flowstore"
	"booterscope/internal/packet"
	"booterscope/internal/telemetry/eventlog"
)

var testBase = time.Date(2018, 4, 1, 12, 0, 0, 0, time.UTC)

// fedRec builds an amplified-NTP-shaped record (UDP from port 123,
// 486-byte packets) with a key that varies with n.
func fedRec(n int, src, dst string, pkts uint64, ts time.Time) flow.Record {
	return flow.Record{
		Key: flow.Key{
			Src:      netip.MustParseAddr(src),
			Dst:      netip.MustParseAddr(dst),
			SrcPort:  123,
			DstPort:  uint16(40000 + n),
			Protocol: packet.IPProtoUDP,
		},
		Packets:      pkts,
		Bytes:        pkts * 486,
		Start:        ts,
		End:          ts.Add(time.Minute),
		SamplingRate: 1,
	}
}

// buildVantage writes recs into a sealed store under dir/name and
// returns the manifest entry.
func buildVantage(t *testing.T, dir, name, tier string, recs []flow.Record) Vantage {
	t.Helper()
	vdir := filepath.Join(dir, name)
	st, err := flowstore.Open(vdir, flowstore.Options{Shards: 2, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) > 0 {
		if err := st.Append(recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return Vantage{Name: name, Tier: tier, Dir: vdir}
}

func openFed(t *testing.T, vantages ...Vantage) *Coordinator {
	t.Helper()
	c, err := Open(&Manifest{Vantages: vantages}, Options{
		Parallelism:  2,
		StoreOptions: flowstore.Options{NoSync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// collect drains a federated scan into (vantage, record) pairs.
func collect(t *testing.T, c *Coordinator, q flowstore.Query) ([]string, []flow.Record, FederatedStats) {
	t.Helper()
	var vantages []string
	var recs []flow.Record
	stats, err := c.Scan(q, func(v string, r *flow.Record) error {
		vantages = append(vantages, v)
		recs = append(recs, *r)
		return nil
	})
	if err != nil {
		t.Fatalf("federated scan: %v", err)
	}
	return vantages, recs, stats
}

func TestManifestLoadSaveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := &Manifest{Vantages: []Vantage{
		{Name: "tier1", Tier: "tier-1 isp", Dir: "stores/tier1", ClockSkewMaxSeconds: 60},
		{Name: "ixp", Tier: "ixp", Dir: "stores/ixp", ClockSkewMaxSeconds: 30},
	}}
	path := filepath.Join(dir, "vantages.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Vantages[0].Name != "ixp" || got.Vantages[1].Name != "tier1" {
		t.Fatalf("manifest not name-sorted: %+v", got.Vantages)
	}
	// Relative dirs resolve against the manifest's directory.
	want := filepath.Join(dir, "stores/ixp")
	if got.Vantages[0].Dir != want {
		t.Fatalf("relative dir not resolved: got %q, want %q", got.Vantages[0].Dir, want)
	}
}

func TestManifestValidation(t *testing.T) {
	cases := []struct {
		name string
		m    Manifest
		want string
	}{
		{"empty", Manifest{}, "no vantages"},
		{"unnamed", Manifest{Vantages: []Vantage{{Dir: "x"}}}, "no name"},
		{"duplicate", Manifest{Vantages: []Vantage{{Name: "a", Dir: "x"}, {Name: "a", Dir: "y"}}}, "duplicate"},
		{"nodir", Manifest{Vantages: []Vantage{{Name: "a"}}}, "no store dir"},
		{"negskew", Manifest{Vantages: []Vantage{{Name: "a", Dir: "x", ClockSkewMaxSeconds: -1}}}, "negative clock-skew"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			err := m.normalize()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("normalize() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestFederatedScanOrder pins the merged stream's global order:
// ascending start time, equal-time ties broken by vantage name.
func TestFederatedScanOrder(t *testing.T) {
	dir := t.TempDir()
	// Both vantages hold records at the same three timestamps.
	var aRecs, bRecs []flow.Record
	for i := 0; i < 9; i++ {
		ts := testBase.Add(time.Duration(i%3) * time.Minute)
		aRecs = append(aRecs, fedRec(i, "10.0.0.1", "203.0.113.5", 10, ts))
		bRecs = append(bRecs, fedRec(100+i, "10.0.0.2", "203.0.113.6", 10, ts))
	}
	va := buildVantage(t, dir, "alpha", "ixp", aRecs)
	vb := buildVantage(t, dir, "beta", "tier-1 isp", bRecs)
	c := openFed(t, vb, va) // intentionally out of order; Open normalizes

	vantages, recs, stats := collect(t, c, flowstore.Query{})
	if len(recs) != 18 {
		t.Fatalf("merged %d records, want 18", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Start.Before(recs[i-1].Start) {
			t.Fatalf("record %d out of time order", i)
		}
		if recs[i].Start.Equal(recs[i-1].Start) && vantages[i] < vantages[i-1] {
			t.Fatalf("tie at %v broken against vantage-name order: %s before %s",
				recs[i].Start, vantages[i-1], vantages[i])
		}
	}
	if stats.Total.RecordsMatched != 18 {
		t.Fatalf("total matched = %d, want 18", stats.Total.RecordsMatched)
	}
	if len(stats.PerVantage) != 2 || stats.PerVantage[0].Name != "alpha" {
		t.Fatalf("per-vantage stats malformed: %+v", stats.PerVantage)
	}
	var sum flowstore.ScanStats
	for _, pv := range stats.PerVantage {
		sum.Merge(pv.Stats)
	}
	if sum != stats.Total {
		t.Fatalf("Total != merged per-vantage stats:\n%+v\n%+v", stats.Total, sum)
	}
}

// TestFederationEmptyVantage: a vantage with a sealed-but-empty store
// contributes nothing and breaks nothing.
func TestFederationEmptyVantage(t *testing.T) {
	dir := t.TempDir()
	recs := []flow.Record{fedRec(0, "10.0.0.1", "203.0.113.5", 10, testBase)}
	full := buildVantage(t, dir, "full", "ixp", recs)
	empty := buildVantage(t, dir, "empty", "tier-2 isp", nil)
	c := openFed(t, full, empty)

	vantages, got, stats := collect(t, c, flowstore.Query{})
	if len(got) != 1 || vantages[0] != "full" {
		t.Fatalf("got %d records from %v, want 1 from full", len(got), vantages)
	}
	for _, pv := range stats.PerVantage {
		if pv.Name == "empty" && pv.Stats.RecordsMatched != 0 {
			t.Fatalf("empty vantage matched %d records", pv.Stats.RecordsMatched)
		}
	}
}

// TestFederationSingleVantagePassthrough: federating one store changes
// nothing — same records in the same order, same stats as Store.Scan.
func TestFederationSingleVantagePassthrough(t *testing.T) {
	dir := t.TempDir()
	var recs []flow.Record
	for i := 0; i < 200; i++ {
		ts := testBase.Add(time.Duration(i%7) * time.Second)
		recs = append(recs, fedRec(i, "10.0.0.1", "203.0.113.5", 10, ts))
	}
	v := buildVantage(t, dir, "solo", "ixp", recs)
	c := openFed(t, v)

	_, fedRecs, fedStats := collect(t, c, flowstore.Query{})

	st, err := flowstore.Open(v.Dir, flowstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var direct []flow.Record
	directStats, err := st.Scan(flowstore.Query{}, func(r *flow.Record) error {
		direct = append(direct, *r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fedRecs, direct) {
		t.Fatalf("federated single-vantage scan diverges from direct scan: %d vs %d records",
			len(fedRecs), len(direct))
	}
	if fedStats.Total != directStats {
		t.Fatalf("stats diverge:\nfed    = %+v\ndirect = %+v", fedStats.Total, directStats)
	}
}

// TestFederationDisjointTimeRanges: vantages covering disjoint windows
// concatenate cleanly in time order.
func TestFederationDisjointTimeRanges(t *testing.T) {
	dir := t.TempDir()
	var early, late []flow.Record
	for i := 0; i < 20; i++ {
		early = append(early, fedRec(i, "10.0.0.1", "203.0.113.5", 10, testBase.Add(time.Duration(i)*time.Second)))
		late = append(late, fedRec(i, "10.0.0.2", "203.0.113.6", 10, testBase.Add(time.Hour+time.Duration(i)*time.Second)))
	}
	// "zearly" sorts after "alate": name order must not override time order.
	c := openFed(t,
		buildVantage(t, dir, "zearly", "ixp", early),
		buildVantage(t, dir, "alate", "tier-1 isp", late),
	)
	vantages, recs, _ := collect(t, c, flowstore.Query{})
	if len(recs) != 40 {
		t.Fatalf("merged %d records, want 40", len(recs))
	}
	for i, v := range vantages {
		want := "zearly"
		if i >= 20 {
			want = "alate"
		}
		if v != want {
			t.Fatalf("record %d came from %s, want %s", i, v, want)
		}
	}
}

// TestFederationScanErrorSurfaces: when one vantage's archive is
// corrupt, the federated scan surfaces that vantage's error and the
// other cursors shut down cleanly (no goroutine leak under -race; the
// coordinator stays usable for accounting).
func TestFederationScanErrorSurfaces(t *testing.T) {
	dir := t.TempDir()
	var good, bad []flow.Record
	for i := 0; i < 5000; i++ {
		good = append(good, fedRec(i, "10.0.0.1", "203.0.113.5", 10, testBase.Add(time.Duration(i)*time.Second)))
		bad = append(bad, fedRec(i, "10.0.0.2", "203.0.113.6", 10, testBase.Add(time.Duration(i)*time.Second)))
	}
	vGood := buildVantage(t, dir, "good", "ixp", good)
	vBad := buildVantage(t, dir, "bad", "tier-1 isp", bad)

	// Corrupt one sealed segment of the bad vantage mid-file so its
	// scan fails partway through, not at open. The corruption targets a
	// frame length header — a torn-frame error the format detects by
	// construction; a flipped payload byte is not guaranteed to break
	// decoding (a dictionary index flip decodes cleanly to a different
	// valid value, and sealed-segment scans skip CRC by design).
	segs, err := filepath.Glob(filepath.Join(vBad.Dir, "shard-*", "seg-*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments found: %v", err)
	}
	blocks, err := flowstore.InspectSegment(segs[0])
	if err != nil || len(blocks) == 0 {
		t.Fatalf("inspecting segment: %v (%d blocks)", err, len(blocks))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[blocks[len(blocks)/2].Offset] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	c := openFed(t, vGood, vBad)
	var delivered int
	_, scanErr := c.Scan(flowstore.Query{}, func(string, *flow.Record) error {
		delivered++
		return nil
	})
	if scanErr == nil {
		t.Fatal("scan over a corrupt vantage returned no error")
	}
	if delivered >= 10000 {
		t.Fatalf("all %d records delivered despite corruption", delivered)
	}
	// The coordinator survives: a query pruned to nothing still works.
	_, err = c.Scan(flowstore.Query{To: testBase.Add(-time.Hour)}, func(string, *flow.Record) error {
		t.Fatal("pruned query delivered a record")
		return nil
	})
	if err != nil {
		t.Fatalf("coordinator unusable after scan error: %v", err)
	}
}

// TestFederationCallbackErrorAborts: a callback error cancels the
// merge immediately and surfaces unchanged.
func TestFederationCallbackErrorAborts(t *testing.T) {
	dir := t.TempDir()
	var recs []flow.Record
	for i := 0; i < 1000; i++ {
		recs = append(recs, fedRec(i, "10.0.0.1", "203.0.113.5", 10, testBase.Add(time.Duration(i)*time.Second)))
	}
	c := openFed(t, buildVantage(t, dir, "only", "ixp", recs))
	wantErr := fmt.Errorf("stop here")
	n := 0
	_, err := c.Scan(flowstore.Query{}, func(string, *flow.Record) error {
		n++
		if n == 10 {
			return wantErr
		}
		return nil
	})
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if n != 10 {
		t.Fatalf("callback ran %d times after aborting at 10", n)
	}
}

// attackRecs builds a multi-minute NTP amplification toward dst with
// the given source count, strong enough to cross lowered thresholds.
func attackRecs(dst string, sources, minutes int, at time.Time) []flow.Record {
	var out []flow.Record
	for m := 0; m < minutes; m++ {
		for s := 0; s < sources; s++ {
			src := fmt.Sprintf("21.0.%d.%d", s>>8, s&0xff)
			out = append(out, fedRec(s, src, dst, 1000, at.Add(time.Duration(m)*time.Minute)))
		}
	}
	return out
}

// TestCorrelateSeenAndMissing seeds one attack visible at both
// vantages and one visible only at the IXP, then checks the join
// reports the disagreement — the paper's "seen at the IXP, missing at
// the tier-1" observable — and that the report is deterministic.
func TestCorrelateSeenAndMissing(t *testing.T) {
	dir := t.TempDir()
	shared := attackRecs("203.0.113.10", 20, 3, testBase)
	ixpOnly := attackRecs("203.0.113.20", 20, 3, testBase.Add(10*time.Minute))
	ixp := buildVantage(t, dir, "ixp", "ixp", append(append([]flow.Record{}, shared...), ixpOnly...))
	tier1 := buildVantage(t, dir, "tier1", "tier-1 isp", shared)
	tier1.ClockSkewMaxSeconds = 30

	c := openFed(t, ixp, tier1)
	ev := eventlog.New(256)
	opts := CorrelateOptions{
		Config: classify.Config{MinRateBps: 50_000, MinSources: 3},
		Events: ev,
	}
	report, err := c.Correlate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Attacks) != 2 {
		t.Fatalf("joined %d attacks, want 2: %+v", len(report.Attacks), report.Attacks)
	}
	both, only := report.Attacks[0], report.Attacks[1]
	if both.Victim.String() != "203.0.113.10" || only.Victim.String() != "203.0.113.20" {
		t.Fatalf("attack order wrong: %v, %v", both.Victim, only.Victim)
	}
	if !reflect.DeepEqual(both.SeenAt, []string{"ixp", "tier1"}) || len(both.MissingAt) != 0 {
		t.Fatalf("shared attack: SeenAt=%v MissingAt=%v", both.SeenAt, both.MissingAt)
	}
	if both.Disagreement {
		t.Fatal("shared attack flagged as disagreement")
	}
	if !reflect.DeepEqual(only.SeenAt, []string{"ixp"}) || !reflect.DeepEqual(only.MissingAt, []string{"tier1"}) {
		t.Fatalf("ixp-only attack: SeenAt=%v MissingAt=%v", only.SeenAt, only.MissingAt)
	}
	if !only.Disagreement || report.Disagreements != 1 {
		t.Fatalf("disagreement not flagged: %+v", only)
	}
	if only.PerVantageRate["ixp"] <= 0 {
		t.Fatalf("ixp peak rate missing: %+v", only.PerVantageRate)
	}
	if _, ok := only.PerVantageRate["tier1"]; ok {
		t.Fatal("tier1 has a rate for an attack it never observed")
	}

	// The flight recorder carries the join.
	var joined int
	for _, e := range ev.Snapshot() {
		if e.Kind == "federation_attack_joined" {
			joined++
			if eventAttr(e, "victim") == "203.0.113.20" && eventAttr(e, "missing_at") != "tier1" {
				t.Fatalf("join event missing_at = %q", eventAttr(e, "missing_at"))
			}
		}
	}
	if joined != 2 {
		t.Fatalf("emitted %d federation_attack_joined events, want 2", joined)
	}

	// Determinism: a second run over the same archives is identical.
	report2, err := c.Correlate(CorrelateOptions{Config: opts.Config, Events: eventlog.New(256)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(report, report2) {
		t.Fatal("correlation reports differ between identical runs")
	}
}

// TestCorrelateClockSkewJoins: the same attack recorded 90 seconds
// apart at two vantages joins once their skew bounds cover the gap,
// and stays split without them.
func TestCorrelateClockSkewJoins(t *testing.T) {
	dir := t.TempDir()
	early := attackRecs("203.0.113.30", 20, 2, testBase)
	late := attackRecs("203.0.113.30", 20, 2, testBase.Add(3*time.Minute))
	a := buildVantage(t, dir, "a", "ixp", early)
	b := buildVantage(t, dir, "b", "tier-1 isp", late)
	opts := CorrelateOptions{Config: classify.Config{MinRateBps: 50_000, MinSources: 3}, Events: eventlog.New(16)}

	// Gap between the widened intervals: a covers [0, 2m), b starts at
	// 3m — 60s of bin slack leaves a 60s gap, so no join without skew.
	c1 := openFed(t, a, b)
	r1, err := c1.Correlate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Attacks) != 2 {
		t.Fatalf("without skew bounds: %d attacks, want 2 (split)", len(r1.Attacks))
	}

	// 60s of allowed skew on one side bridges the gap.
	a2, b2 := a, b
	a2.ClockSkewMaxSeconds = 60
	c2 := openFed(t, a2, b2)
	r2, err := c2.Correlate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Attacks) != 1 {
		t.Fatalf("with skew bounds: %d attacks, want 1 (joined)", len(r2.Attacks))
	}
	if !reflect.DeepEqual(r2.Attacks[0].SeenAt, []string{"a", "b"}) {
		t.Fatalf("joined attack SeenAt = %v", r2.Attacks[0].SeenAt)
	}
}

// TestVantagesHandler: the /vantages debug view lists every vantage
// with its archive size and the last scan's stats.
func TestVantagesHandler(t *testing.T) {
	dir := t.TempDir()
	recs := []flow.Record{fedRec(0, "10.0.0.1", "203.0.113.5", 10, testBase)}
	c := openFed(t,
		buildVantage(t, dir, "ixp", "ixp", recs),
		buildVantage(t, dir, "tier1", "tier-1 isp", nil),
	)
	collect(t, c, flowstore.Query{})

	rr := httptest.NewRecorder()
	c.VantagesHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/vantages", nil))
	var got struct {
		Vantages []struct {
			Name    string `json:"name"`
			Records uint64 `json:"records"`
		} `json:"vantages"`
		LastScan *FederatedStats `json:"last_scan"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatalf("invalid /vantages JSON: %v\n%s", err, rr.Body.String())
	}
	if len(got.Vantages) != 2 || got.Vantages[0].Name != "ixp" || got.Vantages[0].Records != 1 {
		t.Fatalf("vantage listing wrong: %+v", got.Vantages)
	}
	if got.LastScan == nil || got.LastScan.Total.RecordsMatched != 1 {
		t.Fatalf("last scan missing or wrong: %+v", got.LastScan)
	}
}

// eventAttr returns the value of an event attribute, "" when absent.
func eventAttr(e eventlog.Event, key string) string {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}
