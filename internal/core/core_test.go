package core

import (
	"testing"
	"time"

	"booterscope/internal/amplify"
	"booterscope/internal/observatory"
	"booterscope/internal/trafficgen"
)

func TestTable1(t *testing.T) {
	s, err := NewSelfAttackStudy(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := s.Table1()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	seized := 0
	for _, row := range rows {
		if row.Seized {
			seized++
		}
		if row.PriceNonVIP <= 0 || row.PriceVIP <= 0 {
			t.Errorf("booter %s prices = %v/%v", row.Booter, row.PriceNonVIP, row.PriceVIP)
		}
		if len(row.Vectors) < 2 {
			t.Errorf("booter %s vectors = %v", row.Booter, row.Vectors)
		}
	}
	if seized != 2 {
		t.Errorf("seized booters = %d, want 2 (A and B)", seized)
	}
}

func TestRunNonVIPAttacks(t *testing.T) {
	s, err := NewSelfAttackStudy(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	results, err := s.RunNonVIPAttacks(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 {
		t.Fatalf("attacks = %d, want 10 (the Figure 1a series)", len(results))
	}
	var peakAll float64
	var noTransitCount int
	for _, res := range results {
		if res.Report.PeakMbps() <= 0 {
			t.Errorf("%s: zero traffic", res.Label)
		}
		if res.Report.PeakMbps() > peakAll {
			peakAll = res.Report.PeakMbps()
		}
		if res.NoTransit {
			noTransitCount++
			if res.Report.TransitShare != 0 {
				t.Errorf("%s: transit share %.2f in no-transit run", res.Label, res.Report.TransitShare)
			}
		}
	}
	if noTransitCount != 3 {
		t.Errorf("no-transit runs = %d, want 3", noTransitCount)
	}
	// The strongest non-VIP attack peaks in the multi-Gbps range
	// (paper: 7078 Mbps).
	if peakAll < 2000 || peakAll > 7100 {
		t.Errorf("strongest non-VIP peak = %.0f Mbps", peakAll)
	}
	// No-transit runs hand over via more peers but deliver less traffic
	// than the matching transit-enabled run (booter A NTP pair).
	var withT, noT *observatory.Report
	for _, res := range results {
		if res.Label == "booter A NTP" {
			withT = res.Report
		}
		if res.Label == "booter A NTP (no transit)" {
			noT = res.Report
		}
	}
	if withT == nil || noT == nil {
		t.Fatal("booter A pair missing")
	}
	if noT.MeanMbps() >= withT.MeanMbps() {
		t.Errorf("no-transit mean %.0f >= transit mean %.0f", noT.MeanMbps(), withT.MeanMbps())
	}
	if noT.MaxPeers() <= withT.MaxPeers() {
		t.Errorf("no-transit peers %d <= transit peers %d", noT.MaxPeers(), withT.MaxPeers())
	}
	// CLDAP spreads over the most peers.
	var cldapPeers, ntpPeers int
	for _, res := range results {
		if res.Label == "booter B CLDAP" {
			cldapPeers = res.Report.MaxPeers()
		}
		if res.Label == "booter B NTP" && ntpPeers == 0 {
			ntpPeers = res.Report.MaxPeers()
		}
	}
	if cldapPeers <= ntpPeers {
		t.Errorf("CLDAP peers %d <= NTP peers %d", cldapPeers, ntpPeers)
	}
}

func TestRunVIPAttacks(t *testing.T) {
	s, err := NewSelfAttackStudy(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	results, err := s.RunVIPAttacks()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("VIP attacks = %d", len(results))
	}
	ntp, mem := results[0].Report, results[1].Report
	if len(ntp.Samples) != 300 {
		t.Errorf("VIP NTP seconds = %d, want 300 (5 min)", len(ntp.Samples))
	}
	// NTP VIP saturates the 10GE port and flaps the transit session —
	// the interrupted run in Figure 1(b).
	if ntp.Flaps == 0 {
		t.Error("VIP NTP attack should flap the transit session")
	}
	if ntp.PeakMbps() > 10000.1 {
		t.Errorf("VIP NTP peak %.0f exceeds port capacity", ntp.PeakMbps())
	}
	if ntp.PeakMbps() < 8000 {
		t.Errorf("VIP NTP peak %.0f Mbps, want near port saturation", ntp.PeakMbps())
	}
	// Memcached VIP peaks around 10 Gbps offered; NTP peaks higher
	// offered (20 Gbps), both clamped by the port.
	if mem.PeakMbps() <= 0 {
		t.Error("VIP memcached attack empty")
	}
}

func TestRunReflectorOverlap(t *testing.T) {
	s, err := NewSelfAttackStudy(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunReflectorOverlap()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 16 {
		t.Fatalf("attacks = %d, want 16", len(res.Labels))
	}
	if len(res.Matrix) != 16 {
		t.Fatalf("matrix dim = %d", len(res.Matrix))
	}
	// Same-day pair (steps 0, 1): identical sets.
	if res.Matrix[0][1] != 1 {
		t.Errorf("same-day overlap = %.2f, want 1", res.Matrix[0][1])
	}
	// Across the swap (step 4 vs step 5): near zero.
	if res.Matrix[4][5] > 0.1 {
		t.Errorf("post-swap overlap = %.2f, want ~0", res.Matrix[4][5])
	}
	// Before the swap, moderate churn only (days 0..14).
	if res.Matrix[0][4] < 0.3 {
		t.Errorf("two-week overlap = %.2f, want moderate", res.Matrix[0][4])
	}
	// Cross-booter overlap is small but the matrix must be symmetric.
	for i := range res.Matrix {
		for j := range res.Matrix {
			if res.Matrix[i][j] != res.Matrix[j][i] {
				t.Fatalf("matrix not symmetric at %d,%d", i, j)
			}
		}
	}
	if res.TotalUniqueReflectors <= 0 {
		t.Error("no unique reflectors")
	}
}

func TestLandscapeFigure2a(t *testing.T) {
	l := replayOf(t, Options{Seed: 2, Scale: 0.3, Days: 14}, trafficgen.KindIXP)
	dist, err := l.Figure2a()
	if err != nil {
		t.Fatal(err)
	}
	if dist.Histogram.Total() == 0 {
		t.Fatal("empty histogram")
	}
	// Bimodal: both modes populated.
	if dist.FractionBelow200 <= 0 || dist.FractionBelow200 >= 1 {
		t.Errorf("fraction below 200 = %.3f", dist.FractionBelow200)
	}
}

func TestLandscapeFigure2bc(t *testing.T) {
	l := replayOf(t, Options{Seed: 2, Scale: 0.5, Days: 30})
	all, err := l.AllVantages()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("vantages = %d", len(all))
	}
	byKind := map[trafficgen.Kind]*VantageVictims{}
	for _, v := range all {
		byKind[v.Vantage] = v
		if len(v.Victims) == 0 {
			t.Fatalf("%v: no victims", v.Vantage)
		}
		if v.Filter.Conservative == 0 {
			t.Errorf("%v: conservative filter empty", v.Vantage)
		}
		if v.Filter.ReductionBoth() < 0.3 {
			t.Errorf("%v: conservative reduction = %.2f", v.Vantage, v.Filter.ReductionBoth())
		}
		if v.SourcesCDF.Len() != len(v.Victims) || v.RateCDF.Len() != len(v.Victims) {
			t.Errorf("%v: CDF sizes inconsistent", v.Vantage)
		}
	}
	// Victim-count ordering matches the paper (244K IXP > 95K tier-2 >
	// 36K tier-1).
	if !(len(byKind[trafficgen.KindIXP].Victims) > len(byKind[trafficgen.KindTier2].Victims) &&
		len(byKind[trafficgen.KindTier2].Victims) > len(byKind[trafficgen.KindTier1].Victims)) {
		t.Errorf("victim ordering: IXP=%d T2=%d T1=%d",
			len(byKind[trafficgen.KindIXP].Victims),
			len(byKind[trafficgen.KindTier2].Victims),
			len(byKind[trafficgen.KindTier1].Victims))
	}
	// Most targets receive little traffic: the majority of the rate CDF
	// sits below 1 Gbps.
	ixp := byKind[trafficgen.KindIXP]
	if frac := ixp.RateCDF.At(1.0); frac < 0.5 {
		t.Errorf("fraction of victims below 1 Gbps = %.2f, want majority", frac)
	}
}

func TestTakedownStudy(t *testing.T) {
	ts := replayOf(t, Options{Seed: 3, Scale: 0.25}, trafficgen.KindIXP, trafficgen.KindTier2)
	tier2, err := ts.Analyze(trafficgen.KindTier2)
	if err != nil {
		t.Fatal(err)
	}
	panels := tier2.Figure4
	if len(panels) != 3 {
		t.Fatalf("panels = %d", len(panels))
	}
	for _, p := range panels {
		if !p.Metrics.WT30.Significant {
			t.Errorf("%v: tier-2 reduction not significant", p.Vector)
		}
	}
	ixp, err := ts.Analyze(trafficgen.KindIXP)
	if err != nil {
		t.Fatal(err)
	}
	if fig5 := ixp.Figure5; fig5.Metrics.WT30.Significant {
		t.Error("Figure 5 should show no significant reduction")
	}
}

func TestDomainStudy(t *testing.T) {
	d := NewDomainStudy(Options{Seed: 4})
	booters := d.IdentifiedBooters()
	if len(booters) != 59 {
		t.Errorf("identified booters = %d, want 59 (58 + successor)", len(booters))
	}
	successors := d.SuccessorDomains()
	if len(successors) == 0 {
		t.Fatal("no successor domains after takedown")
	}
	found := false
	for _, s := range successors {
		if s.SuccessorOf != "" {
			found = true
		}
	}
	if !found {
		t.Error("booter A's successor not detected")
	}
	first, atTakedown, last := d.PopulationGrowth()
	if !(first < atTakedown && atTakedown < last) {
		t.Errorf("population growth %d -> %d -> %d not monotone", first, atTakedown, last)
	}
	if len(d.Figure3()) == 0 {
		t.Error("no Figure 3 rows")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 1 || o.Days != 122 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestAmplifyVectorsCoverCatalog(t *testing.T) {
	// The self-attack study must have a reflector pool for every vector
	// a catalog booter offers.
	s, err := NewSelfAttackStudy(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range s.Catalog {
		for _, v := range svc.Vectors() {
			if _, err := s.Engine.WorkingSet(svc, v); err != nil {
				t.Errorf("booter %s %v: %v", svc.Name, v, err)
			}
		}
	}
	_ = amplify.NTP
}
