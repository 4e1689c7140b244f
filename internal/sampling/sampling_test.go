package sampling

import (
	"math"
	"testing"

	"booterscope/internal/netutil"
)

func TestSystematicExactRate(t *testing.T) {
	s, err := NewSystematic(10)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := 0; i < 1000; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits != 100 {
		t.Errorf("hits = %d, want exactly 100", hits)
	}
	if s.Rate() != 10 {
		t.Errorf("rate = %d", s.Rate())
	}
}

func TestSystematicFirstOfPeriod(t *testing.T) {
	s, _ := NewSystematic(4)
	pattern := make([]bool, 8)
	for i := range pattern {
		pattern[i] = s.Sample()
	}
	want := []bool{true, false, false, false, true, false, false, false}
	for i := range want {
		if pattern[i] != want[i] {
			t.Fatalf("pattern = %v", pattern)
		}
	}
}

func TestSystematicRateOne(t *testing.T) {
	s, _ := NewSystematic(1)
	for i := 0; i < 10; i++ {
		if !s.Sample() {
			t.Fatal("1-in-1 sampler dropped a packet")
		}
	}
}

func TestRandomApproximateRate(t *testing.T) {
	r := netutil.NewRand(5)
	s, err := NewRandom(100, r)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Sample() {
			hits++
		}
	}
	// Expect ~1000 hits; allow 4 sigma (~126).
	if math.Abs(float64(hits)-1000) > 130 {
		t.Errorf("hits = %d, want ~1000", hits)
	}
}

func TestRandomRateOne(t *testing.T) {
	s, _ := NewRandom(1, netutil.NewRand(1))
	for i := 0; i < 10; i++ {
		if !s.Sample() {
			t.Fatal("1-in-1 random sampler dropped a packet")
		}
	}
}

func TestBadRates(t *testing.T) {
	if _, err := NewSystematic(0); err != errBadRate {
		t.Errorf("systematic err = %v", err)
	}
	if _, err := NewRandom(0, netutil.NewRand(1)); err != errBadRate {
		t.Errorf("random err = %v", err)
	}
	if _, err := NewEstimator(0); err != errBadRate {
		t.Errorf("estimator err = %v", err)
	}
}

func TestScaleUp(t *testing.T) {
	if got := scaleUp(7, 10000); got != 70000 {
		t.Errorf("ScaleUp = %d", got)
	}
	if got := scaleUp(7, 1); got != 7 {
		t.Errorf("unsampled ScaleUp = %d", got)
	}
	if got := scaleUp(7, 0); got != 7 {
		t.Errorf("zero-rate ScaleUp = %d", got)
	}
}

func TestEstimatorRecoversTotals(t *testing.T) {
	// Sample a synthetic stream of 1M packets of 486 bytes at 1-in-1000
	// and check the estimate lands near the truth.
	const rate = 1000
	const total = 1_000_000
	s, _ := NewSystematic(rate)
	e, _ := NewEstimator(rate)
	for i := 0; i < total; i++ {
		if s.Sample() {
			e.Observe(486)
		}
	}
	if e.Packets() != total {
		t.Errorf("packet estimate = %d, want %d (systematic is exact)", e.Packets(), total)
	}
	if e.Bytes() != total*486 {
		t.Errorf("byte estimate = %d", e.Bytes())
	}
	if e.SampledPackets() != total/rate {
		t.Errorf("samples = %d", e.SampledPackets())
	}
}

func TestEstimatorStdErr(t *testing.T) {
	e, _ := NewEstimator(100)
	for i := 0; i < 400; i++ {
		e.Observe(100)
	}
	want := math.Sqrt(400 * 100 * 99)
	if got := e.StdErrPackets(); math.Abs(got-want) > 1e-6 {
		t.Errorf("stderr = %v, want %v", got, want)
	}
	unsampled, _ := NewEstimator(1)
	unsampled.Observe(1)
	if unsampled.StdErrPackets() != 0 {
		t.Error("unsampled stream should have zero stderr")
	}
}

func BenchmarkSystematic(b *testing.B) {
	s, _ := NewSystematic(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Sample()
	}
}

func BenchmarkRandom(b *testing.B) {
	s, _ := NewRandom(10000, netutil.NewRand(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Sample()
	}
}
