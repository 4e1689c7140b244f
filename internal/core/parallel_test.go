package core

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"booterscope/internal/flowstore"
	"booterscope/internal/takedown"
	"booterscope/internal/trafficgen"
)

// golden parallelism settings: serial, a fixed multi-shard count, and
// whatever the host has.
func goldenPars() []int {
	pars := []int{4, runtime.NumCPU()}
	if pars[1] == pars[0] {
		pars = pars[:1]
	}
	return pars
}

// TestParallelismGolden is the pipeline's acceptance criterion: every
// analysis fanned out across shards must be byte-identical to the
// serial run — live generation, single-pass Analyze, and archive
// replay alike, at parallelism 1, 4, and NumCPU.
func TestParallelismGolden(t *testing.T) {
	cfg := trafficgen.Config{
		Start:    TakedownDate.Add(-15 * 24 * time.Hour),
		Days:     30,
		Takedown: TakedownDate,
		Seed:     5,
		Scale:    0.15,
	}
	scen := trafficgen.NewScenario(cfg)
	k := trafficgen.KindTier2
	w := takedown.WindowOf(cfg)
	src := liveSource(scen, k)

	want, err := takedown.Analyze(src, w, k, 1)
	if err != nil {
		t.Fatalf("serial analyze: %v", err)
	}
	if len(want.Figure4) == 0 || len(want.Figure5.Hourly) == 0 {
		t.Fatal("serial reference is degenerate")
	}
	for _, par := range goldenPars() {
		got, err := takedown.Analyze(src, w, k, par)
		if err != nil {
			t.Fatalf("analyze par=%d: %v", par, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("analyze par=%d diverges from serial", par)
		}
	}

	// Replay from an archive: ScanBatches delivery order depends on
	// shard scheduling, so this also pins order-insensitivity.
	dir := t.TempDir()
	study := &TakedownStudy{Scenario: scen, Event: takedown.FBITakedown}
	if err := study.WriteArchive(dir, flowstore.Options{NoSync: true}, k); err != nil {
		t.Fatalf("write archive: %v", err)
	}
	replay, err := OpenReplay(dir)
	if err != nil {
		t.Fatalf("open replay: %v", err)
	}
	defer replay.Close()
	for _, par := range append([]int{1}, goldenPars()...) {
		replay.Parallelism = par
		got, err := replay.Analyze(k)
		if err != nil {
			t.Fatalf("replay analyze par=%d: %v", par, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("replay analyze par=%d diverges from serial live run", par)
		}
	}
}

// TestLandscapeParallelismGolden: the landscape aggregations (packet
// size histogram, victim classification) must be identical at any
// shard count.
func TestLandscapeParallelismGolden(t *testing.T) {
	replay := replayOf(t, Options{Seed: 5, Scale: 0.2, Days: 7}, trafficgen.KindIXP, trafficgen.KindTier2)
	figures := func(par int) (*PacketSizeDistribution, *VantageVictims) {
		replay.Parallelism = par
		dist, err := replay.Figure2a()
		if err != nil {
			t.Fatalf("figure2a par=%d: %v", par, err)
		}
		victims, err := replay.Figure2bc(trafficgen.KindTier2)
		if err != nil {
			t.Fatalf("figure2bc par=%d: %v", par, err)
		}
		return dist, victims
	}
	wantDist, wantVictims := figures(1)
	if wantDist.Histogram.Total() == 0 || len(wantVictims.Victims) == 0 {
		t.Fatal("serial reference is degenerate")
	}
	for _, par := range goldenPars() {
		gotDist, gotVictims := figures(par)
		if !reflect.DeepEqual(wantDist, gotDist) {
			t.Errorf("figure2a par=%d diverges from serial", par)
		}
		if !reflect.DeepEqual(wantVictims, gotVictims) {
			t.Errorf("figure2bc par=%d diverges from serial", par)
		}
	}
}

// TestReplayWorkerCounts: every replayed figure — 2(a), 2(b)/(c), 4
// and 5 — is the same on one worker, on two, and on eight, more
// workers than the archive has days.
func TestReplayWorkerCounts(t *testing.T) {
	replay := replayOf(t, Options{Seed: 11, Scale: 0.1, Days: 6}, trafficgen.KindIXP, trafficgen.KindTier2)
	type figures struct {
		dist     *PacketSizeDistribution
		victims  *VantageVictims
		analysis *takedown.Analysis
	}
	run := func(par int) figures {
		replay.Parallelism = par
		var f figures
		var err error
		if f.dist, err = replay.Figure2a(); err != nil {
			t.Fatalf("figure2a par=%d: %v", par, err)
		}
		if f.victims, err = replay.Figure2bc(trafficgen.KindIXP); err != nil {
			t.Fatalf("figure2bc par=%d: %v", par, err)
		}
		if f.analysis, err = replay.Analyze(trafficgen.KindTier2); err != nil {
			t.Fatalf("analyze par=%d: %v", par, err)
		}
		return f
	}
	want := run(1)
	if len(want.victims.Victims) == 0 || len(want.analysis.Figure5.Hourly) == 0 {
		t.Fatal("serial reference is degenerate")
	}
	for _, par := range []int{2, 8} {
		if got := run(par); !reflect.DeepEqual(want, got) {
			t.Errorf("replay on %d workers diverges from one worker", par)
		}
	}
}
