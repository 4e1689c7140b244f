package core

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"booterscope/internal/flowstore"
	"booterscope/internal/pipe"
	"booterscope/internal/takedown"
	"booterscope/internal/trafficgen"
)

// TestReplayMatchesLive is the archive's acceptance criterion: the
// Section 5.2 analyses replayed from a stored 30-day window must be
// byte-identical to live generation at the same seed — same Welch
// significance outcomes, same after/before ratios, same daily series.
// This holds because the takedown aggregations are exact (integer sums
// in float64, per-key maps) and order-insensitive, so the store's
// shard-merge delivery order cannot perturb them.
func TestReplayMatchesLive(t *testing.T) {
	cfg := trafficgen.Config{
		Start:    TakedownDate.Add(-15 * 24 * time.Hour),
		Days:     30,
		Takedown: TakedownDate,
		Seed:     2019,
		Scale:    0.15,
	}
	study := &TakedownStudy{Scenario: trafficgen.NewScenario(cfg), Event: takedown.FBITakedown}
	kinds := []trafficgen.Kind{trafficgen.KindIXP, trafficgen.KindTier2}

	dir := t.TempDir()
	if err := study.WriteArchive(dir, flowstore.Options{NoSync: true}, kinds...); err != nil {
		t.Fatalf("write archive: %v", err)
	}
	replay, err := OpenReplay(dir)
	if err != nil {
		t.Fatalf("open replay: %v", err)
	}
	defer replay.Close()

	w := replay.Window()
	if !w.Start.Equal(cfg.Start) || w.Days != cfg.Days || !w.Takedown.Equal(cfg.Takedown) {
		t.Fatalf("replay window %+v does not match config %+v", w, cfg)
	}
	if got := replay.Kinds(); len(got) != len(kinds) {
		t.Fatalf("replay kinds %v, want %v", got, kinds)
	}

	for _, k := range kinds {
		livePanels, err := takedown.Figure4(study.Scenario, k)
		if err != nil {
			t.Fatalf("%v live figure4: %v", k, err)
		}
		repPanels, err := replay.Figure4(k)
		if err != nil {
			t.Fatalf("%v replay figure4: %v", k, err)
		}
		if len(livePanels) != len(repPanels) {
			t.Fatalf("%v: %d live panels vs %d replayed", k, len(livePanels), len(repPanels))
		}
		for i := range livePanels {
			l, r := livePanels[i], repPanels[i]
			if l.Vector != r.Vector {
				t.Fatalf("%v panel %d: vector %v vs %v", k, i, l.Vector, r.Vector)
			}
			if !reflect.DeepEqual(l.Metrics, r.Metrics) {
				t.Errorf("%v %v: metrics diverge\nlive:   %+v\nreplay: %+v", k, l.Vector, l.Metrics, r.Metrics)
			}
			if !reflect.DeepEqual(l.Daily, r.Daily) {
				t.Errorf("%v %v: daily series diverge (%d vs %d points)", k, l.Vector, len(l.Daily), len(r.Daily))
			}
		}

		live5, err := takedown.Figure5(study.Scenario, k)
		if err != nil {
			t.Fatalf("%v live figure5: %v", k, err)
		}
		rep5, err := replay.Figure5(k)
		if err != nil {
			t.Fatalf("%v replay figure5: %v", k, err)
		}
		if !reflect.DeepEqual(live5.Metrics, rep5.Metrics) {
			t.Errorf("%v figure5: metrics diverge\nlive:   %+v\nreplay: %+v", k, live5.Metrics, rep5.Metrics)
		}
		if !reflect.DeepEqual(live5.Hourly, rep5.Hourly) {
			t.Errorf("%v figure5: hourly series diverge (%d vs %d points)", k, len(live5.Hourly), len(rep5.Hourly))
		}

		liveRob, err := takedown.Figure4Robustness(study.Scenario, k)
		if err != nil {
			t.Fatalf("%v live robustness: %v", k, err)
		}
		repRob, err := replay.Figure4Robustness(k)
		if err != nil {
			t.Fatalf("%v replay robustness: %v", k, err)
		}
		if len(liveRob) == 0 || !reflect.DeepEqual(liveRob, repRob) {
			t.Errorf("%v robustness: replay diverges from live\nlive:   %+v\nreplay: %+v", k, liveRob, repRob)
		}

		// The landscape figures: the replayed columnar scan against the
		// same aggregation fed whole-record batches from the generator.
		live2bc, err := figure2bcSource(liveSource(study.Scenario, k), k, 1)
		if err != nil {
			t.Fatalf("%v live figure2bc: %v", k, err)
		}
		rep2bc, err := replay.Figure2bc(k)
		if err != nil {
			t.Fatalf("%v replay figure2bc: %v", k, err)
		}
		if len(live2bc.Victims) == 0 || !reflect.DeepEqual(live2bc, rep2bc) {
			t.Errorf("%v figure2bc: replay diverges from live (%d vs %d victims)", k, len(rep2bc.Victims), len(live2bc.Victims))
		}
	}
	live2a, err := figure2aSource(liveSource(study.Scenario, trafficgen.KindIXP), 1)
	if err != nil {
		t.Fatalf("live figure2a: %v", err)
	}
	rep2a, err := replay.Figure2a()
	if err != nil {
		t.Fatalf("replay figure2a: %v", err)
	}
	if live2a.Histogram.Total() == 0 || !reflect.DeepEqual(live2a, rep2a) {
		t.Errorf("figure2a: replay diverges from live")
	}
}

// liveSource streams one vantage point's records straight from the
// generator, one batch per day: the live side every replayed figure is
// held against.
func liveSource(s *trafficgen.Scenario, k trafficgen.Kind) takedown.Source {
	return func(emit func(*pipe.Batch) error) error {
		for day := 0; day < s.Config().Days; day++ {
			if err := emit(pipe.Wrap(s.Day(k, day))); err != nil {
				return err
			}
		}
		return nil
	}
}

// replayOf archives the scenario opts describes for the given vantages
// with fsync off, as GenerateReplay does with it on, and opens it for
// replay; the archive lives until the test ends.
func replayOf(tb testing.TB, opts Options, kinds ...trafficgen.Kind) *ReplayStudy {
	tb.Helper()
	r, err := openGenerated(tb.TempDir(), flowstore.Options{NoSync: true}, opts, kinds)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.Close() })
	return r
}

// TestOpenReplayWindow: the analysis window is read in vantage order and
// every store must carry the same one — an archive assembled from two
// different runs is refused, naming both stores.
func TestOpenReplayWindow(t *testing.T) {
	meta := func(start, days, td string) map[string]string {
		return map[string]string{"start": start, "days": days, "takedown": td}
	}
	const start, td = "2018-12-04T00:00:00Z", "2018-12-19T00:00:00Z"
	for _, tc := range []struct {
		name       string
		ixp, tier2 map[string]string
		wantErr    bool
	}{
		{"agree", meta(start, "30", td), meta(start, "30", td), false},
		{"same instant, other zone", meta(start, "30", td), meta("2018-12-04T01:00:00+01:00", "30", td), false},
		{"days differ", meta(start, "30", td), meta(start, "31", td), true},
		{"start differs", meta(start, "30", td), meta("2018-12-05T00:00:00Z", "30", td), true},
		{"takedown differs", meta(start, "30", td), meta(start, "30", "2018-12-20T00:00:00Z"), true},
	} {
		dir := t.TempDir()
		for slug, m := range map[string]map[string]string{"ixp": tc.ixp, "tier2": tc.tier2} {
			st, err := flowstore.Open(filepath.Join(dir, slug), flowstore.Options{NoSync: true, Meta: m})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
		replay, err := OpenReplay(dir)
		if err == nil {
			replay.Close()
		}
		switch {
		case tc.wantErr && (err == nil || !strings.Contains(err.Error(), "ixp") || !strings.Contains(err.Error(), "tier2")):
			t.Errorf("%s: err = %v, want a disagreement naming ixp and tier2", tc.name, err)
		case !tc.wantErr && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !tc.wantErr && (replay.Window().Days != 30 || !replay.Window().Start.Equal(time.Date(2018, 12, 4, 0, 0, 0, 0, time.UTC))):
			t.Errorf("%s: window %+v", tc.name, replay.Window())
		}
	}
}

// TestWriteArchiveAccounting: the archive writer must account for every
// generated record — the store ledger is how a dropped batch would
// surface under chaos.
func TestWriteArchiveAccounting(t *testing.T) {
	cfg := trafficgen.Config{
		Start:    TakedownDate.Add(-2 * 24 * time.Hour),
		Days:     4,
		Takedown: TakedownDate,
		Seed:     7,
		Scale:    0.05,
	}
	study := &TakedownStudy{Scenario: trafficgen.NewScenario(cfg), Event: takedown.FBITakedown}
	k := trafficgen.KindTier2
	total := 0
	for day := 0; day < cfg.Days; day++ {
		total += len(study.Scenario.Day(k, day))
	}

	dir := t.TempDir()
	if err := study.WriteArchive(dir, flowstore.Options{NoSync: true}, k); err != nil {
		t.Fatal(err)
	}
	replay, err := OpenReplay(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	st := replay.Store(k)
	if st == nil {
		t.Fatal("missing tier2 store")
	}
	var sealed uint64
	for _, e := range st.Segments() {
		sealed += e.Records
	}
	if sealed != uint64(total) {
		t.Fatalf("archive holds %d records, generator produced %d", sealed, total)
	}
}
