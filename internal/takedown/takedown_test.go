package takedown

import (
	"math"
	"testing"
	"time"

	"booterscope/internal/amplify"
	"booterscope/internal/flow"
	"booterscope/internal/timeseries"
	"booterscope/internal/trafficgen"
)

func testScenario(scale float64) *trafficgen.Scenario {
	return trafficgen.NewScenario(trafficgen.Config{
		Start:    time.Date(2018, 9, 30, 0, 0, 0, 0, time.UTC),
		Days:     122,
		Takedown: FBITakedown.Date,
		Seed:     42,
		Scale:    scale,
	})
}

func TestFBITakedownEvent(t *testing.T) {
	if FBITakedown.SeizedDomains != 15 {
		t.Errorf("seized domains = %d", FBITakedown.SeizedDomains)
	}
	if FBITakedown.Date.Month() != time.December || FBITakedown.Date.Year() != 2018 {
		t.Errorf("date = %v", FBITakedown.Date)
	}
}

func TestFigure4Tier2(t *testing.T) {
	panels, err := Figure4(testScenario(0.3), trafficgen.KindTier2)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 3 {
		t.Fatalf("panels = %d", len(panels))
	}
	byVector := map[amplify.Vector]Figure4Panel{}
	for _, p := range panels {
		byVector[p.Vector] = p
		if len(p.Daily) != 122 {
			t.Errorf("%v daily points = %d, want 122", p.Vector, len(p.Daily))
		}
	}

	// Memcached: strongest drop, significant in both windows, red ~0.22.
	mem := byVector[amplify.Memcached]
	if !mem.Metrics.WT30.Significant || !mem.Metrics.WT40.Significant {
		t.Error("memcached reduction should be significant in both windows")
	}
	if r := mem.Metrics.WT30.Reduction; math.Abs(r-0.22) > 0.12 {
		t.Errorf("memcached red30 = %.3f, want ~0.22", r)
	}

	// NTP: significant, red ~0.38.
	ntp := byVector[amplify.NTP]
	if !ntp.Metrics.WT30.Significant || !ntp.Metrics.WT40.Significant {
		t.Error("NTP reduction should be significant in both windows")
	}
	if r := ntp.Metrics.WT30.Reduction; math.Abs(r-0.38) > 0.15 {
		t.Errorf("NTP red30 = %.3f, want ~0.38", r)
	}

	// DNS: significant but milder (paper: ~0.8, the noisiest panel).
	dns := byVector[amplify.DNS]
	if !dns.Metrics.WT30.Significant {
		t.Error("tier-2 DNS reduction should be significant")
	}
	if r := dns.Metrics.WT30.Reduction; r < 0.65 || r > 0.95 {
		t.Errorf("DNS red30 = %.3f, want ~0.8", r)
	}

	// Ordering: memcached drops hardest, DNS least.
	if !(mem.Metrics.WT30.Reduction < ntp.Metrics.WT30.Reduction &&
		ntp.Metrics.WT30.Reduction < dns.Metrics.WT30.Reduction) {
		t.Errorf("reduction ordering violated: mem=%.2f ntp=%.2f dns=%.2f",
			mem.Metrics.WT30.Reduction, ntp.Metrics.WT30.Reduction, dns.Metrics.WT30.Reduction)
	}
}

func TestFigure4IXPMemcachedSignificant(t *testing.T) {
	panels, err := Figure4(testScenario(0.3), trafficgen.KindIXP)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range panels {
		if p.Vector == amplify.Memcached {
			if !p.Metrics.WT30.Significant {
				t.Error("IXP memcached reduction should be significant (paper Figure 4 top)")
			}
		}
	}
}

func TestFigure5NoSignificantReduction(t *testing.T) {
	res, err := Figure5(testScenario(0.3), trafficgen.KindIXP)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline negative result.
	if res.Metrics.WT30.Significant || res.Metrics.WT40.Significant {
		t.Errorf("attack counts flagged significant: wt30 p=%v wt40 p=%v",
			res.Metrics.WT30.Welch.P, res.Metrics.WT40.Welch.P)
	}
	if len(res.Hourly) == 0 {
		t.Fatal("no hourly attack counts")
	}
	// Counts must exist on both sides of the takedown.
	var before, after int
	for _, hp := range res.Hourly {
		if hp.Hour.Before(FBITakedown.Date) {
			before += hp.Count
		} else {
			after += hp.Count
		}
	}
	if before == 0 || after == 0 {
		t.Errorf("attack counts before=%d after=%d", before, after)
	}
}

func TestFigure4PanelString(t *testing.T) {
	panels, err := Figure4(testScenario(0.2), trafficgen.KindTier2)
	if err != nil {
		t.Fatal(err)
	}
	s := panels[0].String()
	if s == "" {
		t.Error("empty panel string")
	}
}

func TestDirectionBreakdownTier2(t *testing.T) {
	m, err := directionBreakdown(testScenario(0.3), trafficgen.KindTier2, amplify.NTP)
	if err != nil {
		t.Fatal(err)
	}
	// Tier-2 sees both directions of trigger traffic.
	if len(m) != 2 {
		t.Fatalf("directions = %d", len(m))
	}
	for dir, metrics := range m {
		if !metrics.WT30.Significant {
			t.Errorf("%v NTP trigger reduction not significant", dir)
		}
	}
}

func TestDirectionBreakdownTier1IngressOnly(t *testing.T) {
	m, err := directionBreakdown(testScenario(0.3), trafficgen.KindTier1, amplify.NTP)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 {
		t.Fatalf("tier-1 directions = %d, want ingress only", len(m))
	}
	if _, ok := m[flow.Ingress]; !ok {
		t.Error("tier-1 missing ingress metrics")
	}
}

func TestNoTakedownScenarioNotSignificant(t *testing.T) {
	// Null experiment: with booter traffic unchanged, no panel fires.
	s := trafficgen.NewScenario(trafficgen.Config{
		Start:    time.Date(2018, 9, 30, 0, 0, 0, 0, time.UTC),
		Days:     122,
		Takedown: FBITakedown.Date,
		Seed:     42,
		Scale:    0.3,
		PostTakedownBooterFactor: map[amplify.Vector]float64{
			amplify.NTP: 1, amplify.DNS: 1, amplify.Memcached: 1,
		},
	})
	panels, err := Figure4(s, trafficgen.KindTier2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range panels {
		if p.Metrics.WT30.Significant && p.Metrics.WT30.Reduction < 0.9 {
			t.Errorf("null scenario: %v flagged with red30=%.2f", p.Vector, p.Metrics.WT30.Reduction)
		}
	}
}

func BenchmarkFigure4Tier2(b *testing.B) {
	s := testScenario(0.2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Figure4(s, trafficgen.KindTier2); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFigure4Robustness(t *testing.T) {
	rob, err := Figure4Robustness(testScenario(0.3), trafficgen.KindTier2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rob) != 3 {
		t.Fatalf("vectors = %d", len(rob))
	}
	for _, r := range rob {
		// The tier-2 reductions are strong level shifts: both tests
		// must agree on significance.
		if !r.WelchSig || !r.RankSig {
			t.Errorf("%v: welch=%t rank=%t (rank p=%v)", r.Vector, r.WelchSig, r.RankSig, r.RankP)
		}
		if !r.Agrees() {
			t.Errorf("%v: tests disagree", r.Vector)
		}
	}
}

func TestRobustnessNullScenarioAgrees(t *testing.T) {
	s := trafficgen.NewScenario(trafficgen.Config{
		Start:    time.Date(2018, 9, 30, 0, 0, 0, 0, time.UTC),
		Days:     122,
		Takedown: FBITakedown.Date,
		Seed:     42,
		Scale:    0.3,
		PostTakedownBooterFactor: map[amplify.Vector]float64{
			amplify.NTP: 1, amplify.DNS: 1, amplify.Memcached: 1,
		},
	})
	rob, err := Figure4Robustness(s, trafficgen.KindTier2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rob {
		if r.RankSig {
			t.Errorf("%v: rank test fired on the null scenario (p=%v)", r.Vector, r.RankP)
		}
	}
}

// directionBreakdown is Figure4 for the per-direction breakdown: the
// serial, unsourced reference.
func directionBreakdown(s *trafficgen.Scenario, k trafficgen.Kind, v amplify.Vector) (map[flow.Direction]timeseries.TakedownMetrics, error) {
	return directionBreakdownSource(scenarioSource(s, k), WindowOf(s.Config()), k, v, 1)
}
