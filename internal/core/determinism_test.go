package core

import (
	"testing"
	"time"

	"booterscope/internal/trafficgen"
)

// TestStudiesDeterministic locks the reproducibility contract: every
// study rebuilt from the same seed yields identical results.
func TestStudiesDeterministic(t *testing.T) {
	const seed = 99

	runSelf := func() (float64, int) {
		s, err := NewSelfAttackStudy(Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		results, err := s.RunNonVIPAttacks(20 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		var mbps float64
		refl := 0
		for _, r := range results {
			mbps += r.Report.MeanMbps()
			refl += r.Report.MaxReflectors()
		}
		return mbps, refl
	}
	m1, r1 := runSelf()
	m2, r2 := runSelf()
	if m1 != m2 || r1 != r2 {
		t.Errorf("self-attack study diverged: %.3f/%d vs %.3f/%d", m1, r1, m2, r2)
	}

	runLandscape := func() (int, float64) {
		l := replayOf(t, Options{Seed: seed, Scale: 0.2, Days: 7}, trafficgen.KindTier2)
		v, err := l.Figure2bc(trafficgen.KindTier2)
		if err != nil {
			t.Fatal(err)
		}
		return len(v.Victims), v.MaxGbps()
	}
	v1, g1 := runLandscape()
	v2, g2 := runLandscape()
	if v1 != v2 || g1 != g2 {
		t.Errorf("landscape study diverged: %d/%.3f vs %d/%.3f", v1, g1, v2, g2)
	}

	runTakedown := func() (float64, float64) {
		ts := replayOf(t, Options{Seed: seed, Scale: 0.15}, trafficgen.KindTier2)
		a, err := ts.Analyze(trafficgen.KindTier2)
		if err != nil {
			t.Fatal(err)
		}
		return a.Figure4[0].Metrics.WT30.Reduction, a.Figure4[0].Metrics.WT30.Welch.P
	}
	p1, q1 := runTakedown()
	p2, q2 := runTakedown()
	if p1 != p2 || q1 != q2 {
		t.Errorf("takedown study diverged: %v/%v vs %v/%v", p1, q1, p2, q2)
	}

	d1 := NewDomainStudy(Options{Seed: seed}).Figure3()
	d2 := NewDomainStudy(Options{Seed: seed}).Figure3()
	if len(d1) != len(d2) {
		t.Fatalf("domain study row counts diverged: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("domain study row %d diverged", i)
		}
	}
}

// TestStudySeedsIndependent verifies different seeds explore different
// realizations (no accidental seed pinning).
func TestStudySeedsIndependent(t *testing.T) {
	landscape := func(seed uint64) *VantageVictims {
		v, err := replayOf(t, Options{Seed: seed, Scale: 0.2, Days: 7}, trafficgen.KindTier2).Figure2bc(trafficgen.KindTier2)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a, b := landscape(1), landscape(2)
	if len(a.Victims) == len(b.Victims) && a.MaxGbps() == b.MaxGbps() {
		t.Error("different seeds produced identical landscapes")
	}
}
