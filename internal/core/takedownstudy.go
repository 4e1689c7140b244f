package core

import (
	"booterscope/internal/takedown"
	"booterscope/internal/trafficgen"
)

// TakedownStudy is the traffic scenario behind Sections 4 and 5.2: the
// three vantage points' flows around the FBI seizure. It only
// generates; every figure is computed by a ReplayStudy over the archive
// WriteArchive writes (GenerateReplay does both).
type TakedownStudy struct {
	Scenario *trafficgen.Scenario
	Event    takedown.Event
}

// NewTakedownStudy builds the scenario spanning the seizure
// (Options.Days long, 122 by default).
func NewTakedownStudy(opts Options) *TakedownStudy {
	opts = opts.withDefaults()
	return &TakedownStudy{
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
