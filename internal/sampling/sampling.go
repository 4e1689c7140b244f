// Package sampling implements the packet sampling strategies used by the
// study's vantage points: systematic count-based (1-in-N) sampling as
// deployed on IXP platforms, and uniform random sampling. Scale-up
// estimators invert the sampling to recover traffic totals, which is how
// the paper reports Gbps figures from sampled IPFIX data.
package sampling //bsvet:allow deadcode no production caller since the fabric's Sampler went; kept for its 9 tests (deletion deferred, ROADMAP 8(iv))

import (
	"errors"
	"math"

	"booterscope/internal/netutil"
)

// errBadRate reports an invalid sampling configuration.
var errBadRate = errors.New("sampling: rate must be >= 1")

// Sampler decides, packet by packet, whether an observation is kept.
type Sampler interface {
	// Sample reports whether the next observation is selected.
	Sample() bool
	// Rate reports the nominal 1-in-N rate for scale-up.
	Rate() uint32
}

// Systematic is deterministic count-based sampling: exactly one packet
// out of every N is selected (the first of each period, matching common
// router implementations).
type Systematic struct {
	n       uint32
	counter uint32
}

// NewSystematic returns a 1-in-n systematic sampler.
func NewSystematic(n uint32) (*Systematic, error) {
	if n < 1 {
		return nil, errBadRate
	}
	return &Systematic{n: n}, nil
}

// Sample implements Sampler.
func (s *Systematic) Sample() bool {
	hit := s.counter == 0
	s.counter++
	if s.counter == s.n {
		s.counter = 0
	}
	return hit
}

// Rate implements Sampler.
func (s *Systematic) Rate() uint32 { return s.n }

// random is uniform probabilistic sampling: each packet is selected
// independently with probability 1/N.
type random struct {
	n uint32
	r *netutil.Rand
}

// NewRandom returns a probabilistic 1-in-n sampler driven by r.
func NewRandom(n uint32, r *netutil.Rand) (*random, error) {
	if n < 1 {
		return nil, errBadRate
	}
	return &random{n: n, r: r}, nil
}

// Sample implements Sampler.
func (s *random) Sample() bool {
	if s.n == 1 {
		return true
	}
	return s.r.Uint32N(s.n) == 0
}

// Rate implements Sampler.
func (s *random) Rate() uint32 { return s.n }

// scaleUp inverts sampling: given a sampled count and the rate, it
// returns the unbiased estimate of the original count.
func scaleUp(sampled uint64, rate uint32) uint64 {
	if rate <= 1 {
		return sampled
	}
	return sampled * uint64(rate)
}

// estimator accumulates sampled packet/byte observations and produces
// scaled totals together with the standard error of the packet estimate
// (binomial model), so analyses can reason about sampling noise.
type estimator struct {
	rate    uint32
	packets uint64
	bytes   uint64
}

// NewEstimator returns an estimator for a 1-in-rate sampled stream.
func NewEstimator(rate uint32) (*estimator, error) {
	if rate < 1 {
		return nil, errBadRate
	}
	return &estimator{rate: rate}, nil
}

// Observe records one sampled packet of the given size.
func (e *estimator) Observe(bytes uint64) {
	e.packets++
	e.bytes += bytes
}

// Packets returns the scaled packet count estimate.
func (e *estimator) Packets() uint64 { return scaleUp(e.packets, e.rate) }

// Bytes returns the scaled byte count estimate.
func (e *estimator) Bytes() uint64 { return scaleUp(e.bytes, e.rate) }

// SampledPackets returns the raw (unscaled) number of samples.
func (e *estimator) SampledPackets() uint64 { return e.packets }

// StdErrPackets returns the standard error of the packet estimate under
// the independent-sampling model: N * sqrt(k) where k is the number of
// samples, divided out per the estimator variance k*N*(N-1).
func (e *estimator) StdErrPackets() float64 {
	if e.rate <= 1 {
		return 0
	}
	n := float64(e.rate)
	k := float64(e.packets)
	return math.Sqrt(k * n * (n - 1))
}
