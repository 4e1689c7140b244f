package service

import (
	"testing"
	"time"

	"booterscope/internal/telemetry"
)

func TestBurnEvaluatorQuietStreamNeverBreaches(t *testing.T) {
	b := newBurnEvaluator()
	for i := uint64(1); i <= 20; i++ {
		// 1000 observations per step, none over target.
		fast, slow, breach, edge := b.observe(i*1000, 0)
		if fast != 0 || slow != 0 || breach || edge {
			t.Fatalf("step %d: fast=%v slow=%v breach=%v edge=%v, want all zero",
				i, fast, slow, breach, edge)
		}
	}
}

func TestBurnEvaluatorBreachesOnSustainedBurn(t *testing.T) {
	b := newBurnEvaluator()
	// Every observation over target: badFrac 1, burn 1/0.01 = 100 in
	// both windows from the very first sample (startup windows use the
	// zero baseline, which is exact — the histogram began empty).
	fast, slow, breach, edge := b.observe(100, 100)
	if fast != 100 || slow != 100 {
		t.Fatalf("burn = %v/%v, want 100/100", fast, slow)
	}
	if !breach || !edge {
		t.Fatalf("breach=%v edge=%v, want true/true", breach, edge)
	}
	// Staying breached is not an edge.
	_, _, breach, edge = b.observe(200, 200)
	if !breach || edge {
		t.Fatalf("sustained: breach=%v edge=%v, want true/false", breach, edge)
	}
}

func TestBurnEvaluatorFastWindowAloneDoesNotPage(t *testing.T) {
	b := newBurnEvaluator()
	// A long clean history, then a short spike: the fast window burns
	// hot but the slow window still averages it away — the multi-window
	// construction's whole point.
	var count uint64
	for i := 0; i < slowWindow+10; i++ {
		count += 100
		b.observe(count, 0)
	}
	// 100 bad in one step: the 5-sample fast window sees 100/500 (burn
	// 20), the 60-sample slow window 100/6000 (burn 1.7) — over and
	// under the 14.4 threshold respectively.
	count += 100
	fast, slow, breach, _ := b.observe(count, 100)
	if fast < burnThreshold {
		t.Fatalf("fast burn = %v, want >= threshold %v (spike must register)", fast, burnThreshold)
	}
	if slow >= burnThreshold {
		t.Fatalf("slow burn = %v, want < threshold (spike must be smoothed)", slow)
	}
	if breach {
		t.Fatal("breached on a fast-window spike alone")
	}
}

func TestBurnEvaluatorRecoveryEdge(t *testing.T) {
	b := newBurnEvaluator()
	b.observe(100, 100) // breach
	// Clean traffic pushes both windows under threshold once the bad
	// samples age out of them.
	var count, bad uint64 = 100, 100
	sawRecovery := false
	for i := 0; i < 10; i++ {
		count += 100_000
		_, _, breach, edge := b.observe(count, bad)
		if edge && !breach {
			sawRecovery = true
			break
		}
	}
	if !sawRecovery {
		t.Fatal("no recovery edge after sustained clean traffic")
	}
}

func TestBurnEvaluatorWindowForgets(t *testing.T) {
	b := newBurnEvaluator()
	b.observe(100, 100)
	// slowWindow+1 clean steps must drop both burns to 0: the old bad
	// sample is outside every window.
	var fast, slow float64
	for i := uint64(1); i <= slowWindow+1; i++ {
		fast, slow, _, _ = b.observe(100+i*100, 100)
	}
	if fast != 0 || slow != 0 {
		t.Fatalf("burn after window passed = %v/%v, want 0/0", fast, slow)
	}
}

func TestBurnDefaults(t *testing.T) {
	if o := (SLOOptions{}).withDefaults(); o.TargetP99 != 250*time.Millisecond {
		t.Fatalf("defaults = %+v", o)
	}
	if fastWindow != 5 || slowWindow != 60 {
		t.Fatalf("windows = %d/%d, want 5/60 (5m/1h at the 1-minute cadence)", fastWindow, slowWindow)
	}
	// The slow window can never be shorter than the fast one.
	if slowWindow < fastWindow {
		t.Fatalf("slowWindow %d < fastWindow %d", slowWindow, fastWindow)
	}
}

func TestBadCountMatchesHistogram(t *testing.T) {
	h := telemetry.NewHistogram()
	for i := 0; i < 40; i++ {
		h.Observe(0.001) // well under target
	}
	for i := 0; i < 7; i++ {
		h.Observe(1.0) // over target
	}
	// 250ms is an exact DefBuckets bound, so the split is lossless.
	if got := badCount(h.Snapshot(), 0.25); got != 7 {
		t.Fatalf("badCount = %d, want 7", got)
	}
	// An observation exactly on the target bound counts as good
	// (histogram buckets are <= upper bound).
	h.Observe(0.25)
	if got := badCount(h.Snapshot(), 0.25); got != 7 {
		t.Fatalf("badCount with on-target observation = %d, want 7", got)
	}
}

func TestEvaluateExportsBurnGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc := openService(t, t.TempDir(), "", testCfg, Options{Registry: reg})
	defer func() { _, _ = svc.Drain() }()

	// All detections over the 250ms default target: one evaluation is
	// enough to breach both startup windows.
	for i := 0; i < 50; i++ {
		svc.detect.ObserveDuration(time.Second)
	}
	svc.evaluate()
	if v := svc.m.burnFast.Value(); v < 14.4 {
		t.Fatalf("burnFast gauge = %v, want >= 14.4", v)
	}
	if v := svc.m.burnSlow.Value(); v < 14.4 {
		t.Fatalf("burnSlow gauge = %v, want >= 14.4", v)
	}
	if svc.stats().SLOBreaches != 1 {
		t.Fatalf("SLOBreaches = %d, want 1", svc.stats().SLOBreaches)
	}
}
