package core

import (
	"booterscope/internal/takedown"
	"booterscope/internal/trafficgen"
)

// TakedownStudy reproduces Section 5.2: the traffic effects of the FBI
// seizure. Its analyses run on the batch pipeline with
// Options.Parallelism shards; results are identical at any setting.
type TakedownStudy struct {
	opts     Options
	Scenario *trafficgen.Scenario
	Event    takedown.Event
}

// NewTakedownStudy builds the 122-day scenario spanning the seizure.
func NewTakedownStudy(opts Options) *TakedownStudy {
	opts = opts.withDefaults()
	return &TakedownStudy{
		opts: opts,
		Scenario: trafficgen.NewScenario(trafficgen.Config{
			Start:    StudyStart,
			Days:     opts.Days,
			Takedown: TakedownDate,
			Seed:     opts.Seed,
			Scale:    opts.Scale,
		}),
		Event: takedown.FBITakedown,
	}
}

// source streams one vantage point's live-generated records.
func (t *TakedownStudy) source(k trafficgen.Kind) takedown.Source {
	return takedown.ScenarioSource(t.Scenario, k)
}

// window is the study's analysis window.
func (t *TakedownStudy) window() takedown.Window {
	return takedown.WindowOf(t.Scenario.Config())
}

// Figure4 computes the to-reflector panels for one vantage point.
func (t *TakedownStudy) Figure4(k trafficgen.Kind) ([]takedown.Figure4Panel, error) {
	return takedown.Figure4Source(t.source(k), t.window(), k, t.opts.Parallelism)
}

// Figure4All computes the panels for all three vantage points.
func (t *TakedownStudy) Figure4All() (map[trafficgen.Kind][]takedown.Figure4Panel, error) {
	out := make(map[trafficgen.Kind][]takedown.Figure4Panel, 3)
	for _, k := range []trafficgen.Kind{trafficgen.KindIXP, trafficgen.KindTier1, trafficgen.KindTier2} {
		panels, err := t.Figure4(k)
		if err != nil {
			return nil, err
		}
		out[k] = panels
	}
	return out, nil
}

// Figure5 computes the systems-under-attack analysis for one vantage
// point.
func (t *TakedownStudy) Figure5(k trafficgen.Kind) (*takedown.Figure5Result, error) {
	return takedown.Figure5Source(t.source(k), t.window(), k, t.opts.Parallelism)
}

// Analyze computes Figure 4, Figure 5, and the robustness ablation for
// one vantage point in a single pipeline pass over its records.
//
//bsvet:allow deadcode oracle: TestParallelismGolden pins the one-pass analysis at every shard count
func (t *TakedownStudy) Analyze(k trafficgen.Kind) (*takedown.Analysis, error) {
	return takedown.Analyze(t.source(k), t.window(), k, t.opts.Parallelism)
}
