package service

import (
	"fmt"
	"sync/atomic"
	"time"
)

// ShedLevel is one rung of the overload-degradation ladder. Each step
// gives up a declared slice of fidelity to protect detection latency;
// classification itself is never shed — the ladder tops out at
// ShedArchive with the classifier still seeing (sampled) traffic.
type ShedLevel int32

// The ladder, in escalation order.
const (
	// ShedNone is full fidelity: every record archived and classified.
	ShedNone ShedLevel = iota
	// ShedSample widens sampling: 1-in-sampleN records enter the
	// pipeline with SamplingRate scaled by N, so rate estimates stay
	// unbiased while per-record cost drops N-fold. Source counts are
	// thinned — a declared, accounted degradation.
	ShedSample
	// ShedArchive additionally sheds the landscape-only archive stage:
	// records are classified but no longer persisted. This is the top
	// rung; classification is never shed.
	ShedArchive
)

// String names the level for telemetry labels and logs.
func (l ShedLevel) String() string {
	switch l {
	case ShedNone:
		return "none"
	case ShedSample:
		return "sample"
	case ShedArchive:
		return "archive"
	}
	return fmt.Sprintf("level%d", int32(l))
}

// SLOOptions declares the detection-latency objective.
type SLOOptions struct {
	// TargetP99 is the detection-latency SLO: the p99 of the
	// service_detect_seconds histogram (flow arrival to
	// detection-pipeline hand-off, including shard-queue backpressure)
	// must stay under it. 0 selects 250ms.
	TargetP99 time.Duration
}

// The SLO's fixed points.
const (
	// budgetFraction is the error budget: the fraction of detections
	// allowed over TargetP99 (a 99% objective).
	budgetFraction = 0.01
	// burnThreshold is the burn-rate multiple both windows must exceed
	// to declare a breach (the classic fast-page threshold: at that
	// rate a 30-day budget is gone in ~2 days).
	burnThreshold = 14.4
	// queueHighFrac escalates when the collector ingest queue is
	// fuller than this fraction at evaluation time.
	queueHighFrac = 0.8
	// fastWindow and slowWindow are the burn windows in evaluation
	// samples (5m/1h at the default 1-minute evaluation cadence).
	fastWindow = 5
	slowWindow = 60
	// sampleN is the ShedSample sampling divisor (1-in-N).
	sampleN = 4
	// stepUpAfter is how many consecutive breached evaluations trigger
	// an escalation (1: escalate immediately).
	stepUpAfter = 1
	// stepDownAfter is how many consecutive healthy evaluations walk
	// the ladder back one rung (recover conservatively).
	stepDownAfter = 3
)

func (o SLOOptions) withDefaults() SLOOptions {
	if o.TargetP99 <= 0 {
		o.TargetP99 = 250 * time.Millisecond
	}
	return o
}

// shedder walks the degradation ladder from periodic SLO evaluations.
// observe is called from one goroutine (the service's evaluation
// loop); current is read from the ingest path, hence the atomic level.
type shedder struct {
	opts     SLOOptions
	level    atomic.Int32
	breached int
	healthy  int
	m        *metrics
}

func newShedder(opts SLOOptions, m *metrics) *shedder {
	return &shedder{opts: opts.withDefaults(), m: m}
}

// current reports the active level (ingest hot path, lock-free).
func (s *shedder) current() ShedLevel { return ShedLevel(s.level.Load()) }

// observe folds one evaluation sample into the ladder state and
// returns the (possibly changed) level. A breach of either budget —
// the multi-window burn rate over the latency SLO (sloBreach, from
// the burn evaluator) or the collector queue high-watermark — steps
// the ladder up after stepUpAfter consecutive breaches; stepDownAfter
// consecutive healthy evaluations step it back down.
func (s *shedder) observe(sloBreach bool, queueFrac float64) ShedLevel {
	breach := sloBreach || queueFrac > queueHighFrac
	lvl := s.current()
	if breach {
		s.m.sloBreaches.Inc()
		s.healthy = 0
		s.breached++
		if s.breached >= stepUpAfter && lvl < ShedArchive {
			lvl = s.step(lvl+1, "up")
			s.breached = 0
		}
		return lvl
	}
	s.breached = 0
	s.healthy++
	if s.healthy >= stepDownAfter && lvl > ShedNone {
		lvl = s.step(lvl-1, "down")
		s.healthy = 0
	}
	return lvl
}

func (s *shedder) step(to ShedLevel, dir string) ShedLevel {
	s.level.Store(int32(to))
	s.m.shedLevel.Set(float64(to))
	s.m.shedTransitions.With(to.String(), dir).Inc()
	return to
}
