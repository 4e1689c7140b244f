package takedown

import (
	"errors"
	"testing"

	"booterscope/internal/pipe"
	"booterscope/internal/trafficgen"
)

// scenarioSource streams one vantage point's records from the live
// generator, one batch per day: the record stream the package's tests
// analyze.
func scenarioSource(s *trafficgen.Scenario, k trafficgen.Kind) Source {
	return func(emit func(*pipe.Batch) error) error {
		cfg := s.Config()
		for day := 0; day < cfg.Days; day++ {
			if err := emit(pipe.Wrap(s.Day(k, day))); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestScenarioSourceStopsOnEmitError is the cancellation-propagation
// regression test: when emit fails, the source must return that error
// immediately and emit no further batches.
func TestScenarioSourceStopsOnEmitError(t *testing.T) {
	s := trafficgen.NewScenario(trafficgen.Config{Seed: 7, Days: 6})
	src := scenarioSource(s, trafficgen.KindTier1)

	stop := errors.New("stop early")
	emits := 0
	err := src(func(b *pipe.Batch) error {
		b.Release()
		emits++
		if emits == 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("source error = %v, want %v", err, stop)
	}
	if emits != 2 {
		t.Fatalf("source emitted %d batches after emit cancelled on the 2nd", emits)
	}
}
