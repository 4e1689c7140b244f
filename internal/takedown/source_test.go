package takedown

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"booterscope/internal/pipe"
	"booterscope/internal/telemetry"
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

// countingStage fails its Process call number failAt (counted over
// every stage sharing calls; 0 never fails), pauses on every other
// call of a failing run, and counts its Close.
type countingStage struct {
	calls  *atomic.Int64
	closes *atomic.Int64
	failAt int64
}

var errStage = errors.New("stage failed")

func (s countingStage) Process(*pipe.Batch) error {
	switch s.calls.Add(1) {
	case s.failAt:
		return errStage
	default:
		if s.failAt != 0 {
			time.Sleep(50 * time.Microsecond)
		}
		return nil
	}
}

func (s countingStage) Close() error {
	s.closes.Add(1)
	return nil
}

// TestRunStopsOnStageError: a Process error on any worker is latched
// and returned, the source stops at its next batch, every stage is
// still closed, and no pooled batch is left behind — and a run starts
// no more goroutines than it has workers beside the caller. Stated
// without a measured clock: every successful Process pauses, so a
// source nobody stopped emits all 1000 batches in the time a stopped
// one emits a few.
func TestRunStopsOnStageError(t *testing.T) {
	reg := telemetry.NewRegistry()
	pipe.RegisterTelemetry(reg)
	inFlight := reg.Gauge("pipe_batches_in_flight", "")
	for _, par := range []int{1, 2, 4} {
		for _, failAt := range []int64{1, 5, 0} { // 0: never fails
			before := inFlight.Value()
			base := runtime.NumGoroutine()
			var calls, closes atomic.Int64
			emitted, peak := 0, 0
			src := Source(func(emit func(*pipe.Batch) error) error {
				for i := 0; i < 1000; i++ {
					emitted++
					peak = max(peak, runtime.NumGoroutine()-base)
					if err := emit(pipe.Wrap(nil)); err != nil {
						return err
					}
				}
				return nil
			})
			err := Run(src, par, func() pipe.Stage { return countingStage{&calls, &closes, failAt} })
			if failAt == 0 {
				if err != nil || emitted != 1000 || calls.Load() != 1000 {
					t.Errorf("par %d: err %v, %d emitted, %d processed; want nil, 1000, 1000", par, err, emitted, calls.Load())
				}
			} else {
				if !errors.Is(err, errStage) {
					t.Errorf("par %d, fail at %d: err = %v, want %v", par, failAt, err, errStage)
				}
				if emitted >= 500 {
					t.Errorf("par %d, fail at %d: source emitted %d of 1000 batches after the failure", par, failAt, emitted)
				}
			}
			if closes.Load() != int64(par) {
				t.Errorf("par %d: %d stages closed, want %d", par, closes.Load(), par)
			}
			if peak > par-1 {
				t.Errorf("par %d: %d goroutines beside the caller's, want at most %d", par, peak, par-1)
			}
			if after := inFlight.Value(); after != before {
				t.Errorf("par %d, fail at %d: pipe_batches_in_flight %v -> %v", par, failAt, before, after)
			}
		}
	}
}
