package federation

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/netip"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"booterscope/internal/classify"
	"booterscope/internal/flow"
	"booterscope/internal/flowstore"
	"booterscope/internal/packet"
	"booterscope/internal/telemetry/eventlog"
)

// buildGoldenFederation writes the fixed three-vantage archive behind
// TestCorrelationReportFrozen: two days of attacks on 24 victims, seen
// whole at the IXP, one record in three (sampled 1:4) at the tier-1 and
// 45 s late at the tier-2. Every store is ingested out of order in
// several sealed instalments of small blocks, with most start times on
// whole seconds, so partitions hold several overlapping blocks and
// segments and the merge meets equal timestamps within and across
// shards. Never edit it: the digests were computed on the commit before
// the ordered scan went columnar.
func buildGoldenFederation(t *testing.T, dir string) *Manifest {
	t.Helper()
	rng := rand.New(rand.NewSource(20190108))
	base := time.Date(2019, 1, 8, 21, 0, 0, 0, time.UTC)
	var truth []flow.Record
	for a := 0; a < 60; a++ {
		victim := netip.AddrFrom4([4]byte{203, 0, 113, byte(rng.Intn(24))})
		at := base.Add(time.Duration(rng.Intn(6*3600)) * time.Second)
		sources := 3 + rng.Intn(40)
		minutes := 1 + rng.Intn(6)
		for n := 0; n < sources*minutes*3; n++ {
			start := at.Add(time.Duration(rng.Intn(minutes*60)) * time.Second)
			if rng.Intn(4) == 0 {
				start = start.Add(time.Duration(rng.Intn(1e9)))
			}
			pkts := uint64(200 + rng.Intn(4000))
			rec := flow.Record{
				Key: flow.Key{
					Src:      netip.AddrFrom4([4]byte{198, 51, byte(a), byte(rng.Intn(sources))}),
					Dst:      victim,
					SrcPort:  classify.NTPPort,
					DstPort:  uint16(1024 + rng.Intn(60000)),
					Protocol: packet.IPProtoUDP,
				},
				Packets:      pkts,
				Bytes:        pkts * 468,
				Start:        start,
				End:          start.Add(time.Duration(1+rng.Intn(50)) * time.Second),
				SrcAS:        uint32(64500 + rng.Intn(20)),
				DstAS:        uint32(64600 + rng.Intn(5)),
				SamplingRate: 1,
			}
			switch rng.Intn(10) {
			case 0:
				rec.Bytes = rec.Packets * 76 // benign NTP
			case 1:
				rec.SrcPort, rec.DstPort = rec.DstPort, 443
			}
			truth = append(truth, rec)
		}
	}
	views := []struct {
		v    Vantage
		keep func(r flow.Record) (flow.Record, bool)
	}{
		{Vantage{Name: "ixp", Tier: "ixp"}, func(r flow.Record) (flow.Record, bool) { return r, true }},
		{Vantage{Name: "tier1", Tier: "tier-1 isp", ClockSkewMaxSeconds: 30}, func(r flow.Record) (flow.Record, bool) {
			r.SamplingRate = 4
			return r, rng.Intn(3) == 0
		}},
		{Vantage{Name: "tier2", Tier: "tier-2 isp", ClockSkewMaxSeconds: 60}, func(r flow.Record) (flow.Record, bool) {
			r.Start, r.End = r.Start.Add(45*time.Second), r.End.Add(45*time.Second)
			return r, rng.Intn(5) != 0
		}},
	}
	m := &Manifest{}
	for _, view := range views {
		var recs []flow.Record
		for _, r := range truth {
			if kept, ok := view.keep(r); ok {
				recs = append(recs, kept)
			}
		}
		rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		view.v.Dir = filepath.Join(dir, view.v.Name)
		st, err := flowstore.Open(view.v.Dir, flowstore.Options{Shards: 3, BlockRecords: 256, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		for len(recs) > 0 {
			n := min(len(recs), 2000+rng.Intn(4000))
			if err := st.Append(recs[:n]); err != nil {
				t.Fatal(err)
			}
			if err := st.Seal(); err != nil {
				t.Fatal(err)
			}
			recs = recs[n:]
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		m.Vantages = append(m.Vantages, view.v)
	}
	return m
}

// TestCorrelationReportFrozen pins Correlate's whole report over the
// fixed archive — every joined attack, observation, peak rate and
// per-vantage scan count — at pipeline parallelism 1 and 2, to a digest
// taken before the ordered scan stopped building rows and the monitor
// stopped sweeping its tables. ColumnsDecoded is cleared first: what
// Correlate projects is a cost, not a result.
func TestCorrelationReportFrozen(t *testing.T) {
	const golden = "a42593a2a568f963eab25203771124b7ec3dd3395b14381e69674c102b78b2de"
	m := buildGoldenFederation(t, t.TempDir())
	for _, par := range []int{1, 2} {
		c, err := Open(m, Options{Parallelism: par, StoreOptions: flowstore.Options{NoSync: true}})
		if err != nil {
			t.Fatal(err)
		}
		report, err := c.Correlate(CorrelateOptions{
			Config:       classify.Config{MinRateBps: 2_000_000, MinSources: 8},
			Retention:    4 * time.Minute,
			ReAlertAfter: 6 * time.Minute,
			Events:       eventlog.New(64),
		})
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		var uncrossed int // logged at a vantage that never saw it cross
		for i := range report.PerVantage {
			report.PerVantage[i].Stats.ColumnsDecoded = 0
			uncrossed += report.PerVantage[i].Attacks - report.PerVantage[i].Crossed
		}
		if len(report.Attacks) < 20 || report.Disagreements == 0 || report.Disagreements == len(report.Attacks) || uncrossed == 0 {
			t.Fatalf("fixture lost coverage: %d attacks, %d disagreements, %d uncrossed observations", len(report.Attacks), report.Disagreements, uncrossed)
		}
		b, err := json.Marshal(report)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != golden {
			t.Errorf("parallelism %d: correlation report changed: %d bytes of JSON, sha256 %s, want %s", par, len(b), got, golden)
		}
	}
}

// TestCorrelateMatchesRowMonitor: Correlate feeds each vantage's
// monitor column ranges straight from the ordered merge. What it joins
// must be what the plainest reading gives: one Monitor.Add per record
// of the vantage store's Scan, in order. Each vantage's attack log, and
// the report joined from those logs, must match at pipeline parallelism
// 1 and 4.
func TestCorrelateMatchesRowMonitor(t *testing.T) {
	m := buildGoldenFederation(t, t.TempDir())
	opts := CorrelateOptions{
		Config:       classify.Config{MinRateBps: 2_000_000, MinSources: 8},
		Retention:    4 * time.Minute,
		ReAlertAfter: 6 * time.Minute,
		Events:       eventlog.New(64),
	}
	for _, par := range []int{1, 4} {
		c, err := Open(m, Options{Parallelism: par, StoreOptions: flowstore.Options{NoSync: true}})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		report, err := c.Correlate(opts)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]vantageRun, len(c.vantages))
		for v, vs := range c.vantages {
			mon := classify.NewMonitor(opts.Config)
			mon.Retention, mon.ReAlertAfter, mon.TrackAttackLog = opts.Retention, opts.ReAlertAfter, true
			rows[v].stats, err = vs.store.Scan(flowstore.Query{}, func(r *flow.Record) error {
				mon.Add(r)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			rows[v].log = mon.AttackLog()
			if len(rows[v].log) == 0 {
				t.Fatalf("vantage %s logged no attacks", vs.v.Name)
			}
			got := classifyStream(opts, mergeScan(vs.store))
			if got.err != nil {
				t.Fatal(got.err)
			}
			if !reflect.DeepEqual(got.log, rows[v].log) {
				t.Errorf("parallelism %d, vantage %s: Correlate's monitor logged %d attacks, a row Monitor.Add run %d, and they differ",
					par, vs.v.Name, len(got.log), len(rows[v].log))
			}
		}
		want := c.join(rows)
		for i := range want.PerVantage {
			// The scans differ in what they decode, not in what they read.
			if g, w := report.PerVantage[i].Stats.RecordsMatched, want.PerVantage[i].Stats.RecordsMatched; g != w {
				t.Errorf("parallelism %d, vantage %s: Correlate read %d records, Scan %d", par, want.PerVantage[i].Name, g, w)
			}
			want.PerVantage[i].Stats = report.PerVantage[i].Stats
		}
		if !reflect.DeepEqual(report, want) {
			t.Errorf("parallelism %d: Correlate's report differs from the join of row Monitor.Add attack logs", par)
		}
	}
}

// TestCorrelateReadsOnlyWhatItProjects: Correlate asks its scans for
// monitorColumns only, so every other column of a delivered slab holds
// whatever the decode buffers last held. Overwrite those columns of
// every merge run with garbage on the way to the monitor: the report and
// the scan's accounting must not notice, and must be what a run that
// decoded every column reports. A monitor that starts reading a column the projection
// leaves out fails here, not as a flaky figure.
func TestCorrelateReadsOnlyWhatItProjects(t *testing.T) {
	c, err := Open(buildGoldenFederation(t, t.TempDir()), Options{Parallelism: 2, StoreOptions: flowstore.Options{NoSync: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	opts := CorrelateOptions{
		Config:       classify.Config{MinRateBps: 2_000_000, MinSources: 8},
		Retention:    4 * time.Minute,
		ReAlertAfter: 6 * time.Minute,
		Events:       eventlog.New(64),
	}
	want, err := c.Correlate(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Every column group the monitor's projection leaves out, with the
	// Columns fields it covers. Flags and the start time always decode.
	groups := []struct {
		set    flowstore.ColumnSet
		poison func(c *flow.Columns, i int)
	}{
		{flowstore.ColSrcAddr, func(c *flow.Columns, i int) { c.SrcHi[i], c.SrcLo[i] = ^c.SrcHi[i], ^c.SrcLo[i] }},
		{flowstore.ColDstAddr, func(c *flow.Columns, i int) { c.DstHi[i], c.DstLo[i] = ^c.DstHi[i], ^c.DstLo[i] }},
		{flowstore.ColSrcPort, func(c *flow.Columns, i int) { c.SrcPort[i] ^= 0xffff }},
		{flowstore.ColDstPort, func(c *flow.Columns, i int) { c.DstPort[i] ^= 0xffff }},
		{flowstore.ColProto, func(c *flow.Columns, i int) { c.Proto[i] ^= 0xff }},
		{flowstore.ColCounters, func(c *flow.Columns, i int) {
			c.Packets[i], c.Bytes[i], c.Sampling[i] = ^c.Packets[i], ^c.Bytes[i], ^c.Sampling[i]
		}},
		{flowstore.ColEnd, func(c *flow.Columns, i int) { c.EndSec[i], c.EndNs[i] = ^c.EndSec[i], ^c.EndNs[i] }},
		{flowstore.ColAS, func(c *flow.Columns, i int) { c.SrcAS[i], c.DstAS[i] = ^c.SrcAS[i], ^c.DstAS[i] }},
	}
	// classify runs every vantage through classifyStream, widening the
	// projection to everything or poisoning what it leaves out.
	poisoned := 0
	classify := func(everything bool) *CorrelationReport {
		runs := make([]vantageRun, len(c.vantages))
		for v := range c.vantages {
			runs[v] = classifyStream(opts, func(q flowstore.Query, fn func(int, *flow.Columns, int, int) error) ([]flowstore.ScanStats, error) {
				if everything {
					q.Project = flowstore.AllColumns
				}
				return mergeScan(c.vantages[v].store)(q, func(s int, cols *flow.Columns, lo, hi int) error {
					for _, g := range groups {
						if q.Project&g.set == g.set {
							continue
						}
						poisoned++
						for i := lo; i < hi; i++ {
							g.poison(cols, i)
						}
					}
					return fn(s, cols, lo, hi)
				})
			})
			if runs[v].err != nil {
				t.Fatal(runs[v].err)
			}
		}
		return c.join(runs)
	}
	full := classify(true)
	if poisoned != 0 {
		t.Fatal("a scan of every column left something to poison")
	}
	got := classify(false)
	if poisoned == 0 {
		t.Fatal("Correlate projects every column: nothing was poisoned")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("correlation report changed when the projected-out columns were overwritten")
	}
	for i := range got.PerVantage {
		pv, all := &got.PerVantage[i].Stats, &full.PerVantage[i].Stats
		if pv.RecordsMatched == 0 || pv.RecordsMatched != all.RecordsMatched {
			t.Fatalf("vantage %s matched %d records, a scan of every column %d", got.PerVantage[i].Name, pv.RecordsMatched, all.RecordsMatched)
		}
		if pv.ColumnsDecoded >= all.ColumnsDecoded || all.ColumnsDecoded != all.ColumnsTotal {
			t.Fatalf("vantage %s decoded %d columns projected, %d of %d unprojected", got.PerVantage[i].Name, pv.ColumnsDecoded, all.ColumnsDecoded, all.ColumnsTotal)
		}
		t.Logf("vantage %s: ColumnsDecodedFraction %.3f projected, %.3f unprojected", got.PerVantage[i].Name, pv.ColumnsDecodedFraction(), all.ColumnsDecodedFraction())
		pv.ColumnsDecoded, all.ColumnsDecoded = 0, 0
	}
	if !reflect.DeepEqual(got, full) {
		t.Fatal("the projected, poisoned run and a run that decoded every column report different attacks")
	}
}
