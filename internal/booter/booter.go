// Package booter models DDoS-for-hire services: the catalog of the four
// booters the study purchased attacks from (Table 1), their non-VIP and
// premium (VIP) tiers, their reflector working sets, and the attack
// engine that turns an order into per-second amplification traffic.
//
// Capabilities are calibrated against the self-attack measurements in
// Section 3 of the paper: non-VIP NTP attacks average ~1.4 Gbps and peak
// at ~7 Gbps, the VIP tier reaches ~20 Gbps by driving the same
// reflectors at a higher packet rate (5.3 Mpps vs 2.2 Mpps), and CLDAP
// attacks spread over far more reflectors (3519) and peer ASes (72) than
// NTP ones (~100–1000 reflectors, 20–55 peers).
package booter

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"booterscope/internal/amplify"
	"booterscope/internal/ixp"
	"booterscope/internal/netutil"
	"booterscope/internal/reflector"
)

// Tier is a booter service level.
type Tier uint8

// Service tiers.
const (
	NonVIP Tier = iota
	VIP
)

// String returns the tier name.
func (t Tier) String() string {
	if t == VIP {
		return "VIP"
	}
	return "non-VIP"
}

// capability describes what one booter achieves with one protocol.
type capability struct {
	// MeanMbps and PeakMbps bound the sustained attack rate.
	MeanMbps float64
	PeakMbps float64
	// VIPPeakMbps is the premium tier's peak (0 if no VIP offering for
	// this vector).
	VIPPeakMbps float64
	// Reflectors is the typical number of amplifiers driven per attack.
	Reflectors int
}

// Service is one DDoS-for-hire operation.
type Service struct {
	// Name anonymizes the booter as in the paper (A–D).
	Name string
	// Domain is the service's current website domain.
	Domain string
	// BackupDomain is a pre-registered fallback, unused until a seizure
	// (booter A's behaviour).
	BackupDomain string
	// SeizedByFBI marks services taken down in the December 2018
	// operation.
	SeizedByFBI bool
	// PriceNonVIP and PriceVIP are the advertised monthly prices in USD.
	PriceNonVIP float64
	PriceVIP    float64
	// HasVIP reports whether a premium tier is offered.
	HasVIP bool
	// Capabilities maps each supported attack vector to its strength.
	Capabilities map[amplify.Vector]capability
}

// Vectors lists the service's supported attack vectors in a stable
// order.
func (s *Service) Vectors() []amplify.Vector {
	order := []amplify.Vector{amplify.NTP, amplify.DNS, amplify.CLDAP, amplify.Memcached, amplify.SSDP, amplify.Chargen}
	var out []amplify.Vector
	for _, v := range order {
		if _, ok := s.Capabilities[v]; ok {
			out = append(out, v)
		}
	}
	return out
}

// Supports reports whether the service offers the vector.
//
//bsvet:allow deadcode oracle: TestCatalogMatchesTable1 checks the catalogue against Table 1
func (s *Service) Supports(v amplify.Vector) bool {
	_, ok := s.Capabilities[v]
	return ok
}

// Catalog returns the four booters of Table 1. Rates derive from the
// paper's self-attack measurements.
func Catalog() []*Service {
	return []*Service{
		{
			Name:         "A",
			Domain:       "booter-a.com",
			BackupDomain: "booter-a-reloaded.net",
			SeizedByFBI:  true,
			PriceNonVIP:  8.00,
			PriceVIP:     250.00,
			HasVIP:       true,
			Capabilities: map[amplify.Vector]capability{
				amplify.NTP:       {MeanMbps: 2500, PeakMbps: 7078, Reflectors: 400},
				amplify.DNS:       {MeanMbps: 600, PeakMbps: 1200, Reflectors: 250},
				amplify.CLDAP:     {MeanMbps: 800, PeakMbps: 1500, Reflectors: 900},
				amplify.Memcached: {MeanMbps: 900, PeakMbps: 1800, Reflectors: 60},
			},
		},
		{
			Name:        "B",
			Domain:      "booter-b.net",
			SeizedByFBI: true,
			PriceNonVIP: 19.83,
			PriceVIP:    178.84,
			HasVIP:      true,
			Capabilities: map[amplify.Vector]capability{
				amplify.NTP:       {MeanMbps: 2000, PeakMbps: 5500, VIPPeakMbps: 20000, Reflectors: 350},
				amplify.DNS:       {MeanMbps: 500, PeakMbps: 1000, Reflectors: 300},
				amplify.CLDAP:     {MeanMbps: 1200, PeakMbps: 2200, Reflectors: 3519},
				amplify.Memcached: {MeanMbps: 1500, PeakMbps: 3000, VIPPeakMbps: 10000, Reflectors: 40},
			},
		},
		{
			Name:        "C",
			Domain:      "booter-c.org",
			PriceNonVIP: 14.00,
			PriceVIP:    89.00,
			HasVIP:      true,
			Capabilities: map[amplify.Vector]capability{
				amplify.NTP: {MeanMbps: 1500, PeakMbps: 2400, Reflectors: 300},
				amplify.DNS: {MeanMbps: 400, PeakMbps: 900, Reflectors: 200},
			},
		},
		{
			Name:        "D",
			Domain:      "booter-d.com",
			PriceNonVIP: 19.99,
			PriceVIP:    149.99,
			HasVIP:      true,
			Capabilities: map[amplify.Vector]capability{
				amplify.NTP: {MeanMbps: 700, PeakMbps: 1300, Reflectors: 150},
				amplify.DNS: {MeanMbps: 300, PeakMbps: 700, Reflectors: 120},
			},
		},
	}
}

// ServiceByName returns the catalog entry with the given name.
func ServiceByName(name string) (*Service, error) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("booter: unknown service %q", name)
}

// Order is a purchased attack.
type Order struct {
	Service  *Service
	Vector   amplify.Vector
	Tier     Tier
	Target   netip.Addr
	Duration time.Duration
}

// Ordering errors.
var (
	errUnsupportedVector = errors.New("booter: service does not offer this vector")
	errNoVIP             = errors.New("booter: service has no VIP tier")
	errBadDuration       = errors.New("booter: duration must be positive")
)

// Engine executes attacks. It owns one reflector working set per
// (service, vector) pair, so repeated attacks from one booter reuse the
// same amplifiers the way the study observed.
type Engine struct {
	pools map[amplify.Vector]*reflector.Pool
	sets  map[string]*reflector.WorkingSet
	rand  *netutil.Rand
	seed  uint64
}

// NewEngine builds an engine over shared reflector pools.
func NewEngine(pools map[amplify.Vector]*reflector.Pool, seed uint64) *Engine {
	return &Engine{
		pools: pools,
		sets:  make(map[string]*reflector.WorkingSet),
		rand:  netutil.NewRand(seed).Fork("booter-engine"),
		seed:  seed,
	}
}

// WorkingSet returns (creating on first use) the reflector set a service
// uses for a vector.
func (e *Engine) WorkingSet(svc *Service, vector amplify.Vector) (*reflector.WorkingSet, error) {
	cap, ok := svc.Capabilities[vector]
	if !ok {
		return nil, errUnsupportedVector
	}
	key := svc.Name + "/" + vector.String()
	if ws, ok := e.sets[key]; ok {
		return ws, nil
	}
	pool, ok := e.pools[vector]
	if !ok {
		return nil, fmt.Errorf("booter: no reflector pool for %v", vector)
	}
	ws := reflector.NewWorkingSet(pool, key, cap.Reflectors, e.seed)
	e.sets[key] = ws
	return ws, nil
}

// AdvanceDays ages every working set (reflector churn between
// measurement days).
func (e *Engine) AdvanceDays(days float64) {
	for _, ws := range e.sets {
		ws.Advance(days)
	}
}

// SwapSet replaces a service's working set for one vector entirely — the
// overnight set change observed for booter B.
func (e *Engine) SwapSet(svc *Service, vector amplify.Vector) error {
	ws, err := e.WorkingSet(svc, vector)
	if err != nil {
		return err
	}
	ws.Swap()
	return nil
}

// SecondEmission is one second of attack traffic, aggregated per origin
// AS for fabric delivery and carrying the reflector set for post-mortem
// analysis.
type SecondEmission struct {
	// Second is the offset from attack start.
	Second int
	// Sources groups the offered load by reflector origin AS.
	Sources []ixp.SourceTraffic
	// ReflectorsByAS counts active reflectors per origin AS.
	ReflectorsByAS map[uint32]int
	// TotalBytes and TotalPackets sum the emission.
	TotalBytes   uint64
	TotalPackets uint64
}

// ReflectorCount is the number of active reflectors this second.
//
//bsvet:allow deadcode oracle: TestNonVIPNTPAttackEnvelope counts the reflectors an attack second uses
func (s *SecondEmission) ReflectorCount() int {
	n := 0
	for _, c := range s.ReflectorsByAS {
		n += c
	}
	return n
}

// Attack is a launched order producing one SecondEmission per second.
type Attack struct {
	Order      Order
	Reflectors []reflector.Reflector
	// PacketSize is the average attack packet IP length for this vector.
	PacketSize int
	targetRate float64 // bytes/sec sustained
	peakRate   float64 // bytes/sec peak
	rand       *netutil.Rand
	second     int
	seconds    int
	weights    []float64
}

// Launch validates and starts an order.
func (e *Engine) Launch(order Order) (*Attack, error) {
	cap, ok := order.Service.Capabilities[order.Vector]
	if !ok {
		return nil, errUnsupportedVector
	}
	if order.Tier == VIP {
		if !order.Service.HasVIP {
			return nil, errNoVIP
		}
		if cap.VIPPeakMbps == 0 {
			return nil, fmt.Errorf("%w for %v", errUnsupportedVector, order.Vector)
		}
	}
	if order.Duration <= 0 {
		return nil, errBadDuration
	}
	ws, err := e.WorkingSet(order.Service, order.Vector)
	if err != nil {
		return nil, err
	}
	refs := ws.Select(ws.Size())

	peak := cap.PeakMbps
	mean := cap.MeanMbps
	if order.Tier == VIP {
		// VIP uses the same reflectors at a higher packet rate.
		peak = cap.VIPPeakMbps
		mean = cap.VIPPeakMbps * 0.8
	}
	pktSize := attackPacketSize(order.Vector)
	a := &Attack{
		Order:      order,
		Reflectors: refs,
		PacketSize: pktSize,
		targetRate: mean * 1e6 / 8,
		peakRate:   peak * 1e6 / 8,
		rand:       e.rand.Fork("attack-" + order.Service.Name + order.Vector.String()),
		seconds:    int(order.Duration / time.Second),
	}
	// Heavy-tailed per-reflector weights: a few amplifiers carry a large
	// share, as the study saw for memcached (one member = 33.6 % of the
	// attack).
	a.weights = make([]float64, len(refs))
	var sum float64
	for i := range a.weights {
		a.weights[i] = a.rand.Pareto(1, 1.5)
		sum += a.weights[i]
	}
	for i := range a.weights {
		a.weights[i] /= sum
	}
	observeLaunch(order)
	return a, nil
}

// attackPacketSize gives the representative IP total length of one
// attack packet for a vector.
func attackPacketSize(v amplify.Vector) int {
	switch v {
	case amplify.NTP:
		return 488 // between the observed 486 and 490
	case amplify.DNS:
		return 3000
	case amplify.CLDAP:
		return 2900
	case amplify.Memcached:
		return 1428
	case amplify.SSDP:
		return 320
	default:
		return 512
	}
}

// Next produces the next second of traffic, or false when the attack has
// ended. The envelope ramps up over ~5 s, holds near the sustained rate
// with noise, and occasionally bursts toward the peak.
func (a *Attack) Next() (*SecondEmission, bool) {
	if a.second >= a.seconds {
		return nil, false
	}
	sec := a.second
	a.second++

	rate := a.targetRate
	switch {
	case sec < 5:
		rate *= float64(sec+1) / 5 // ramp-up
	case a.rand.Float64() < 0.08:
		rate = a.peakRate * (0.85 + 0.15*a.rand.Float64()) // burst
	default:
		rate *= 0.85 + 0.3*a.rand.Float64()
	}
	if rate > a.peakRate {
		rate = a.peakRate
	}

	em := &SecondEmission{
		Second:         sec,
		ReflectorsByAS: make(map[uint32]int),
	}
	perAS := make(map[uint32]*ixp.SourceTraffic)
	for i, ref := range a.Reflectors {
		bytes := uint64(rate * a.weights[i])
		if bytes == 0 {
			continue
		}
		pkts := bytes / uint64(a.PacketSize)
		if pkts == 0 {
			pkts = 1
			bytes = uint64(a.PacketSize)
		}
		st, ok := perAS[ref.AS]
		if !ok {
			st = &ixp.SourceTraffic{
				AS:         ref.AS,
				SrcPort:    a.Order.Vector.Port(),
				PacketSize: a.PacketSize,
			}
			perAS[ref.AS] = st
		}
		st.Bytes += bytes
		st.Packets += pkts
		em.ReflectorsByAS[ref.AS]++
		em.TotalBytes += bytes
		em.TotalPackets += pkts
	}
	metricAttackBytes.Add(em.TotalBytes)
	metricAttackPackets.Add(em.TotalPackets)
	metricAttackPPS.Observe(float64(em.TotalPackets))
	em.Sources = make([]ixp.SourceTraffic, 0, len(perAS))
	// Deterministic order: iterate reflectors, appending each AS once.
	seen := make(map[uint32]bool, len(perAS))
	for _, ref := range a.Reflectors {
		if seen[ref.AS] {
			continue
		}
		if st, ok := perAS[ref.AS]; ok {
			seen[ref.AS] = true
			em.Sources = append(em.Sources, *st)
		}
	}
	return em, true
}

// Seize marks the service's primary domain as taken down. Booter A's
// behaviour: if a backup domain exists, the service re-activates on it
// days later; account credentials keep working.
func (s *Service) Seize() {
	s.SeizedByFBI = true
}

// activeDomain returns the domain currently serving customers: the
// backup after a seizure (if any), else the primary.
func (s *Service) activeDomain() string {
	if s.SeizedByFBI && s.BackupDomain != "" {
		return s.BackupDomain
	}
	if s.SeizedByFBI {
		return ""
	}
	return s.Domain
}
