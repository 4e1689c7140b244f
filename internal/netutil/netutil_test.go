package netutil

import (
	"math"
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

func TestAddr4RoundTrip(t *testing.T) {
	cases := []uint32{0, 1, 0x0a000001, 0xc0a80101, 0xffffffff}
	for _, v := range cases {
		addr := Addr4(v)
		if got := Addr4Val(addr); got != v {
			t.Errorf("Addr4Val(Addr4(%#x)) = %#x", v, got)
		}
	}
}

func TestAddr4RoundTripProperty(t *testing.T) {
	f := func(v uint32) bool { return Addr4Val(Addr4(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddr4ValMapped(t *testing.T) {
	mapped := netip.AddrFrom16(netip.MustParseAddr("::ffff:10.0.0.1").As16())
	if got := Addr4Val(mapped); got != 0x0a000001 {
		t.Errorf("Addr4Val(4-in-6) = %#x, want 0x0a000001", got)
	}
}

func TestAddr4ValPanicsOnIPv6(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for IPv6 address")
		}
	}()
	Addr4Val(netip.MustParseAddr("2001:db8::1"))
}

func TestNthAddr(t *testing.T) {
	p := netip.MustParsePrefix("192.0.2.0/24")
	if got := NthAddr(p, 0); got != netip.MustParseAddr("192.0.2.0") {
		t.Errorf("NthAddr(p, 0) = %v", got)
	}
	if got := NthAddr(p, 255); got != netip.MustParseAddr("192.0.2.255") {
		t.Errorf("NthAddr(p, 255) = %v", got)
	}
}

func TestNthAddrUnmaskedPrefix(t *testing.T) {
	// A prefix whose Addr has host bits set must still index from the
	// network address.
	p := netip.MustParsePrefix("192.0.2.77/24")
	if got := NthAddr(p, 1); got != netip.MustParseAddr("192.0.2.1") {
		t.Errorf("NthAddr = %v, want 192.0.2.1", got)
	}
}

func TestNthAddrOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	NthAddr(netip.MustParsePrefix("192.0.2.0/24"), 256)
}

func TestPrefixSize(t *testing.T) {
	if got := PrefixSize(netip.MustParsePrefix("10.0.0.0/24")); got != 256 {
		t.Errorf("PrefixSize(/24) = %d", got)
	}
	if got := PrefixSize(netip.MustParsePrefix("10.0.0.0/32")); got != 1 {
		t.Errorf("PrefixSize(/32) = %d", got)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestRandDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/64 identical values", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRand(7)
	childA := parent.Fork("alpha")
	parent2 := NewRand(7)
	_ = parent2.Fork("alpha")
	childB := parent2.Fork("beta")
	// A forked child must not replay another-named child's stream.
	diverged := false
	for i := 0; i < 16; i++ {
		if childA.Uint64() != childB.Uint64() {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("differently named forks produced identical streams")
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRand(11)
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("mean = %.3f, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.1 {
		t.Errorf("stddev = %.3f, want ~2", math.Sqrt(variance))
	}
}

func TestParetoLowerBound(t *testing.T) {
	r := NewRand(13)
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(5, 1.5); v < 5 {
			t.Fatalf("Pareto draw %.4f below scale 5", v)
		}
	}
}

func TestBitrateString(t *testing.T) {
	cases := []struct {
		rate Bitrate
		want string
	}{
		{500 * bps, "500 bps"},
		{1500 * bps, "1.50 Kbps"},
		{2 * mbps, "2.00 Mbps"},
		{7.078 * Gbps, "7.08 Gbps"},
		{1.7 * tbps, "1.70 Tbps"},
	}
	for _, c := range cases {
		if got := c.rate.String(); got != c.want {
			t.Errorf("(%v bps).String() = %q, want %q", float64(c.rate), got, c.want)
		}
	}
}

func TestRateFromBytes(t *testing.T) {
	// 125 MB over one second is 1 Gbps.
	if got := RateFromBytes(125_000_000, 1); got != 1*Gbps {
		t.Errorf("RateFromBytes = %v", got)
	}
	if got := RateFromBytes(1000, 0); got != 0 {
		t.Errorf("RateFromBytes with zero duration = %v, want 0", got)
	}
}

func TestBackoffGrowthAndJitter(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Rand: NewRand(1)}
	// Attempt n's delay is drawn from [c/2, c) with c = min(Max, Base·2ⁿ).
	for attempt := 0; attempt < 8; attempt++ {
		ceiling := 100 * time.Millisecond
		for i := 0; i < attempt && ceiling < time.Second; i++ {
			ceiling *= 2
		}
		if ceiling > time.Second {
			ceiling = time.Second
		}
		d := b.Delay(attempt)
		if d < ceiling/2 || d >= ceiling {
			t.Errorf("attempt %d delay = %v, want in [%v, %v)", attempt, d, ceiling/2, ceiling)
		}
	}
}

func TestBackoffDeterministic(t *testing.T) {
	mk := func() []time.Duration {
		b := Backoff{Base: 10 * time.Millisecond, Max: 500 * time.Millisecond, Rand: NewRand(42)}
		out := make([]time.Duration, 6)
		for i := range out {
			out[i] = b.Delay(i)
		}
		return out
	}
	a, c := mk(), mk()
	for i := range a {
		if a[i] != c[i] {
			t.Errorf("attempt %d: %v vs %v from the same seed", i, a[i], c[i])
		}
	}
}

func TestBackoffNoJitterAndDefaults(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: 350 * time.Millisecond}
	want := []time.Duration{100, 200, 350, 350} // capped, jitter-free ceilings (ms)
	for i, w := range want {
		if d := b.Delay(i); d != w*time.Millisecond {
			t.Errorf("attempt %d delay = %v, want %v", i, d, w*time.Millisecond)
		}
	}
	// Zero value picks sane defaults and never returns a non-positive
	// or unbounded delay.
	var z Backoff
	for i := 0; i < 40; i++ {
		if d := z.Delay(i); d <= 0 || d > 5*time.Second {
			t.Errorf("zero-value attempt %d delay = %v", i, d)
		}
	}
}

func TestBEUint(t *testing.T) {
	b := []byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08}
	want := []uint64{0, 0x01, 0x0102, 0x010203, 0x01020304, 0x0102030405,
		0x010203040506, 0x01020304050607, 0x0102030405060708}
	for n, w := range want {
		if got := BEUint(b[:n]); got != w {
			t.Errorf("BEUint(%d bytes) = %#x, want %#x", n, got, w)
		}
	}
}
