// Package netutil provides small networking helpers shared by all
// booterscope subsystems: IPv4 address arithmetic on netip.Addr,
// deterministic seeded random number generation, and traffic-rate
// formatting.
//
// Everything in this package is allocation-conscious: the simulators built
// on top of it generate millions of packets and flow records per
// experiment.
package netutil

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"net/netip"
	"time"
)

// BEUint reads a big-endian unsigned integer of up to 8 bytes: a
// flow-export counter, port or AS number, which a template may declare
// at a reduced size (RFC 7011 §6.2). The full widths exporters
// actually send are one fixed-width load; reading those byte by byte
// cost ipfix BenchmarkDecode 11–17 %.
func BEUint(b []byte) uint64 {
	switch len(b) {
	case 8:
		return binary.BigEndian.Uint64(b)
	case 4:
		return uint64(binary.BigEndian.Uint32(b))
	case 2:
		return uint64(binary.BigEndian.Uint16(b))
	}
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v
}

// Addr4 converts a 32-bit integer into an IPv4 netip.Addr.
func Addr4(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// Addr4Val converts an IPv4 netip.Addr into its 32-bit integer value.
// It panics if addr is not IPv4 (including IPv4-mapped IPv6).
func Addr4Val(addr netip.Addr) uint32 {
	if addr.Is4In6() {
		addr = addr.Unmap()
	}
	if !addr.Is4() {
		panic(fmt.Sprintf("netutil: Addr4Val on non-IPv4 address %v", addr))
	}
	b := addr.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// NthAddr returns the n-th address inside prefix (0 is the network
// address). It panics if the prefix is not IPv4 or n exceeds the prefix
// size.
func NthAddr(prefix netip.Prefix, n int) netip.Addr {
	if !prefix.Addr().Is4() {
		panic("netutil: NthAddr requires an IPv4 prefix")
	}
	size := 1 << (32 - prefix.Bits())
	if n < 0 || n >= size {
		panic(fmt.Sprintf("netutil: NthAddr index %d out of range for %v", n, prefix))
	}
	return Addr4(Addr4Val(prefix.Masked().Addr()) + uint32(n))
}

// PrefixSize returns the number of addresses contained in an IPv4 prefix.
func PrefixSize(prefix netip.Prefix) int {
	if !prefix.Addr().Is4() {
		panic("netutil: PrefixSize requires an IPv4 prefix")
	}
	return 1 << (32 - prefix.Bits())
}

// Rand is the deterministic random source used throughout booterscope.
// It wraps math/rand/v2 PCG so that every experiment is reproducible from
// an explicit seed. The zero value is not usable; construct with NewRand.
type Rand struct {
	*rand.Rand
}

// NewRand returns a deterministic random source derived from seed. Two
// Rands built from the same seed produce identical streams.
func NewRand(seed uint64) *Rand {
	return &Rand{rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Fork derives an independent child stream from the parent, keyed by name.
// Forking lets subsystems consume randomness without perturbing each
// other's sequences, keeping experiments stable as code evolves.
func (r *Rand) Fork(name string) *Rand {
	var h uint64 = 14695981039346656037 // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return NewRand(h ^ r.Uint64())
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// Pareto returns a Pareto-distributed value with the given scale (minimum)
// and shape alpha. Heavy-tailed draws model attack magnitudes and flow
// sizes.
func (r *Rand) Pareto(scale, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return scale / math.Pow(u, 1/alpha)
}

// Backoff computes retry delays that grow exponentially with equal
// jitter: attempt n (0-based) draws uniformly from [c/2, c) where
// c = min(Max, Base·2ⁿ). Driving it with a seeded Rand makes retry
// timing reproducible, which the exporter tests rely on.
type Backoff struct {
	// Base is the ceiling of the first attempt's delay (default 50 ms).
	Base time.Duration
	// Max caps the ceiling growth (default 5 s).
	Max time.Duration
	// Rand supplies the jitter; nil disables jitter and returns the
	// ceiling itself.
	Rand *Rand
}

// Delay returns the delay before retry number attempt (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	c := base
	for i := 0; i < attempt; i++ {
		c *= 2
		if c >= max || c <= 0 { // overflow-safe: stop doubling at the cap
			c = max
			break
		}
	}
	if b.Rand == nil {
		return c
	}
	half := c / 2
	if half <= 0 {
		return c
	}
	return half + time.Duration(b.Rand.Int64N(int64(half)))
}

// Bitrate is a traffic rate in bits per second.
type Bitrate float64

// Convenience bitrate units.
const (
	bps  Bitrate = 1
	kbps         = 1e3 * bps
	mbps         = 1e6 * bps
	Gbps         = 1e9 * bps
	tbps         = 1e12 * bps
)

// String formats the bitrate with an auto-selected unit.
func (b Bitrate) String() string {
	switch {
	case b >= tbps:
		return fmt.Sprintf("%.2f Tbps", float64(b)/1e12)
	case b >= Gbps:
		return fmt.Sprintf("%.2f Gbps", float64(b)/1e9)
	case b >= mbps:
		return fmt.Sprintf("%.2f Mbps", float64(b)/1e6)
	case b >= kbps:
		return fmt.Sprintf("%.2f Kbps", float64(b)/1e3)
	default:
		return fmt.Sprintf("%.0f bps", float64(b))
	}
}

// RateFromBytes converts a byte count observed over a duration in seconds
// into a Bitrate.
func RateFromBytes(bytes uint64, seconds float64) Bitrate {
	if seconds <= 0 {
		return 0
	}
	return Bitrate(float64(bytes) * 8 / seconds)
}
