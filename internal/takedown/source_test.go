package takedown

import (
	"errors"
	"testing"

	"booterscope/internal/pipe"
	"booterscope/internal/trafficgen"
)

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
