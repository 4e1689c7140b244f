// Package trafficgen synthesizes the five months of inter-domain traffic
// the study analyzed at its three vantage points (a major IXP, a tier-1
// ISP, and a tier-2 ISP).
//
// The generator replaces the study's closed traces (834B IXP IPFIX
// flows, 6.6B tier-1 and 470M tier-2 NetFlow records), which cannot be
// published. It reproduces the *generating processes* the paper reasons
// about, so every analysis code path sees realistic inputs:
//
//   - benign NTP/DNS background traffic with small packets (the lower
//     mode of Figure 2(a));
//   - trigger traffic *to* reflectors (dst port 123/53/11211): a
//     booter-driven share that shifts down at the takedown plus a benign
//     share (scanning, legitimate queries) that does not — their mix
//     yields the paper's observed red30/red40 reductions;
//   - amplified attack traffic *from* reflectors to victims (src port
//     123, 486/490-byte packets, heavy-tailed rates up to ~600 Gbps),
//     whose level does NOT shift — the paper's central negative result;
//   - low-rate large-packet NTP "noise" destinations (monlist
//     monitoring, custom applications on port 123) that inflate the
//     optimistic victim count and are cut by the conservative filter;
//   - per-vantage-point semantics: the IXP view is packet-sampled, the
//     tier-1 view is ingress-only without customer-sourced traffic, the
//     tier-2 view carries both directions.
//
// Every day of traffic is deterministic given (seed, vantage, day), so
// analyses can stream arbitrary windows without storing records.
package trafficgen

import (
	"fmt"
	"math"
	"time"

	"booterscope/internal/amplify"
	"booterscope/internal/flow"
	"booterscope/internal/netutil"
	"booterscope/internal/packet"
)

// Kind names a vantage point.
type Kind uint8

// The study's three vantage points.
const (
	KindIXP Kind = iota
	KindTier1
	KindTier2
)

// String returns the vantage point name.
func (k Kind) String() string {
	switch k {
	case KindIXP:
		return "IXP"
	case KindTier1:
		return "tier-1 ISP"
	case KindTier2:
		return "tier-2 ISP"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Config parameterizes a scenario.
type Config struct {
	// Start is the first day (UTC midnight) of the scenario.
	Start time.Time
	// Days is the scenario length.
	Days int
	// Takedown is the FBI seizure date; zero disables the event.
	Takedown time.Time
	// Seed drives all randomness.
	Seed uint64
	// Scale multiplies traffic volumes (1.0 reproduces the calibrated
	// defaults; tests use smaller values). Default 1.0.
	Scale float64
	// PostTakedownBooterFactor maps each vector to the post-takedown
	// level of *booter-driven* trigger traffic as a fraction of before.
	// Mixed with the non-dropping benign share, the defaults land the
	// observed reductions near the paper's red30/red40 values
	// (memcached ≈ 0.22, NTP ≈ 0.38, DNS ≈ 0.80 at the tier-2 ISP).
	PostTakedownBooterFactor map[amplify.Vector]float64
	// IXPSamplingRate is the platform's 1-in-N packet sampling. Default
	// 10000.
	IXPSamplingRate uint32
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.IXPSamplingRate == 0 {
		c.IXPSamplingRate = 10000
	}
	if c.PostTakedownBooterFactor == nil {
		c.PostTakedownBooterFactor = map[amplify.Vector]float64{
			amplify.Memcached: 0.18,
			amplify.NTP:       0.27,
			amplify.DNS:       0.33,
		}
	}
	return c
}

// vantageBases are the calibrated per-day intensities for one vantage
// point at scale 1.
type vantageBases struct {
	// attacksPerDay is the victim-facing NTP attack arrival rate.
	attacksPerDay float64
	// noiseDestsPerDay is the number of large-packet low-rate NTP
	// destinations (monitoring, custom apps).
	noiseDestsPerDay float64
	// triggerFlows is the per-vector daily count of flows toward
	// reflectors (booter-driven + benign mixed).
	triggerFlows map[amplify.Vector]float64
	// benignNTPPackets is the daily benign NTP packet budget (the
	// < 200-byte mode of Figure 2(a)).
	benignNTPPackets float64
	// dnsBooterShare is the booter-driven fraction of DNS trigger
	// traffic (resolver load dominates DNS everywhere, most of all at
	// the IXP — which is why the paper found no DNS reduction there).
	dnsBooterShare float64
}

var bases = map[Kind]vantageBases{
	KindIXP: {
		attacksPerDay:    80,
		noiseDestsPerDay: 280,
		triggerFlows: map[amplify.Vector]float64{
			amplify.NTP:       2200,
			amplify.DNS:       5200,
			amplify.Memcached: 1500,
		},
		benignNTPPackets: 2e10,
		dnsBooterShare:   0.08,
	},
	KindTier1: {
		attacksPerDay:    14,
		noiseDestsPerDay: 36,
		triggerFlows: map[amplify.Vector]float64{
			amplify.NTP:       500,
			amplify.DNS:       1100,
			amplify.Memcached: 320,
		},
		benignNTPPackets: 3.5e9,
		dnsBooterShare:   0.30,
	},
	KindTier2: {
		attacksPerDay:    34,
		noiseDestsPerDay: 90,
		triggerFlows: map[amplify.Vector]float64{
			amplify.NTP:       900,
			amplify.DNS:       2100,
			amplify.Memcached: 620,
		},
		benignNTPPackets: 8e9,
		dnsBooterShare:   0.30,
	},
}

// Booter-driven share of trigger traffic for NTP and memcached (DNS is
// per-vantage, see vantageBases.dnsBooterShare).
const (
	ntpBooterShare = 0.85
	memBooterShare = 0.95
)

const reflectorPoolPerVect = 4000

// Scenario generates traffic for all vantage points. It is read-only
// once built, so it is safe for concurrent use: each call draws from its
// own stream into buffers that it allocates and drops.
type Scenario struct {
	cfg Config
	// reflector IPv4 address pools per vector (stable across days).
	reflectors map[amplify.Vector][]uint32
}

// NewScenario builds a scenario.
func NewScenario(cfg Config) *Scenario {
	cfg = cfg.withDefaults()
	s := &Scenario{cfg: cfg, reflectors: make(map[amplify.Vector][]uint32)}
	r := netutil.NewRand(cfg.Seed).Fork("scenario-reflectors")
	for _, v := range []amplify.Vector{amplify.NTP, amplify.DNS, amplify.Memcached} {
		pool := make([]uint32, reflectorPoolPerVect)
		for i := range pool {
			pool[i] = uint32(20+r.IntN(180))<<24 | r.Uint32N(1<<24)
		}
		s.reflectors[v] = pool
	}
	return s
}

// Config returns the (defaulted) configuration.
func (s *Scenario) Config() Config { return s.cfg }

// DayTime returns the UTC midnight of scenario day i.
func (s *Scenario) DayTime(day int) time.Time {
	return s.cfg.Start.UTC().Truncate(24*time.Hour).AddDate(0, 0, day)
}

// afterTakedown reports whether day i falls on or after the takedown.
func (s *Scenario) afterTakedown(day int) bool {
	if s.cfg.Takedown.IsZero() {
		return false
	}
	return !s.DayTime(day).Before(s.cfg.Takedown.UTC().Truncate(24 * time.Hour))
}

// dayRand returns the deterministic stream for (vantage, day).
func (s *Scenario) dayRand(k Kind, day int) *netutil.Rand {
	return netutil.NewRand(s.cfg.Seed).Fork(fmt.Sprintf("day-%s-%d", k, day))
}

// Day generates one vantage point's flow records for one day. Records
// appear in generation order; callers needing time order should bin
// them. The result is a fresh, exactly sized slice the caller owns.
func (s *Scenario) Day(k Kind, day int) []flow.Record {
	r := s.dayRand(k, day)
	dayStart := s.DayTime(day)

	var buf dayBuf
	s.generate(&buf, r, k, day, dayStart)
	for i, blk := range buf.blocks {
		buf.blocks[i] = s.applyVantage(blk, r, k)
	}
	return buf.records(dayStart)
}

// generate runs a vantage's four generating processes for one day into
// buf, in the order that fixes the day's draws.
func (s *Scenario) generate(buf *dayBuf, r *netutil.Rand, k Kind, day int, dayStart time.Time) {
	b := bases[k]
	s.appendTriggerFlows(buf, r, k, day, dayStart, b)
	s.appendBenignNTP(buf, r, b)
	s.appendNoiseDests(buf, r, b)
	s.appendAttacks(buf, r, k, b)
}

// row is a generated record in the form it is drawn: IPv4 addresses as
// integers and times as offsets from the day's midnight. It holds no
// pointers and takes 56 bytes to flow.Record's 136, so a day's scratch
// costs the garbage collector nothing to scan. Every generated flow is
// UDP. Time.Add is exact integer arithmetic on a time without a
// monotonic reading, such as a day's midnight, so dayStart.Add(a+b) is
// the same Time as dayStart.Add(a).Add(b).
type row struct {
	start, end       time.Duration
	packets, bytes   uint64
	src, dst         uint32
	samplingRate     uint32
	srcPort, dstPort uint16
	dir              flow.Direction
}

// record expands w into the flow.Record it stands for.
func (w *row) record(dayStart time.Time) flow.Record {
	return flow.Record{
		Key: flow.Key{
			Src:      netutil.Addr4(w.src),
			Dst:      netutil.Addr4(w.dst),
			SrcPort:  w.srcPort,
			DstPort:  w.dstPort,
			Protocol: packet.IPProtoUDP,
		},
		Packets:      w.packets,
		Bytes:        w.bytes,
		Start:        dayStart.Add(w.start),
		End:          dayStart.Add(w.end),
		Direction:    w.dir,
		SamplingRate: w.samplingRate,
	}
}

// Block sizes of a dayBuf: the first block holds firstBlock rows and
// each later one twice its predecessor, up to maxBlock (224 KB).
const (
	firstBlock = 256
	maxBlock   = 4096
)

// dayBuf collects one day's rows in blocks that never move, so each row
// is written once while the day grows and expanded once by records,
// where one growing slice would be cleared and copied again at every
// reallocation.
type dayBuf struct {
	blocks [][]row // the last block is the one being filled
}

// add appends w to the last block, starting a new one when it is full.
func (d *dayBuf) add(w row) {
	n := len(d.blocks)
	if n == 0 || len(d.blocks[n-1]) == cap(d.blocks[n-1]) {
		size := firstBlock
		if n > 0 {
			size = min(2*cap(d.blocks[n-1]), maxBlock)
		}
		d.blocks = append(d.blocks, make([]row, 0, size))
		n++
	}
	d.blocks[n-1] = append(d.blocks[n-1], w)
}

// records expands the blocks' rows, in order, into one exactly sized
// slice.
func (d *dayBuf) records(dayStart time.Time) []flow.Record {
	n := 0
	for _, blk := range d.blocks {
		n += len(blk)
	}
	out := make([]flow.Record, n)
	i := 0
	for _, blk := range d.blocks {
		for j := range blk {
			out[i] = blk[j].record(dayStart)
			i++
		}
	}
	return out
}

// booterShare returns the booter-driven fraction of a vector's trigger
// traffic at a vantage point.
func (s *Scenario) booterShare(k Kind, v amplify.Vector) float64 {
	switch v {
	case amplify.NTP:
		return ntpBooterShare
	case amplify.Memcached:
		return memBooterShare
	case amplify.DNS:
		return bases[k].dnsBooterShare
	default:
		return 0.5
	}
}

// appendTriggerFlows emits request traffic toward reflectors — the
// traffic whose booter-driven share shifts at the takedown.
func (s *Scenario) appendTriggerFlows(buf *dayBuf, r *netutil.Rand, k Kind, day int, dayStart time.Time, b vantageBases) {
	after := s.afterTakedown(day)
	weekday := weekdayFactor(dayStart)
	for _, v := range []amplify.Vector{amplify.NTP, amplify.DNS, amplify.Memcached} {
		n := b.triggerFlows[v] * s.cfg.Scale
		share := s.booterShare(k, v)
		level := 1 - share // benign share never drops
		if after {
			level += share * s.cfg.PostTakedownBooterFactor[v]
		} else {
			level += share
		}
		count := poissonish(r, n*level*weekday)
		pool := s.reflectors[v]
		reqSize := triggerPacketSize(v)
		for i := 0; i < count; i++ {
			pkts := uint64(1 + r.IntN(200)) // booters fire request bursts
			ts := time.Duration(r.Int64N(int64(24 * time.Hour)))
			buf.add(row{
				src:          randomHost(r),
				dst:          pool[r.IntN(len(pool))],
				srcPort:      randomHighPort(r),
				dstPort:      v.Port(),
				packets:      pkts,
				bytes:        pkts * uint64(reqSize),
				start:        ts,
				end:          ts + time.Duration(1+r.IntN(30))*time.Second,
				dir:          triggerDirection(r, k),
				samplingRate: 1,
			})
		}
	}
}

// weekdayFactor applies the weekly seasonality visible in the paper's
// Figure 4 series: booter usage peaks on weekends (attacks against game
// servers and schools track their users' free time).
func weekdayFactor(day time.Time) float64 {
	switch day.Weekday() {
	case time.Saturday, time.Sunday:
		return 1.25
	case time.Friday:
		return 1.1
	case time.Tuesday, time.Wednesday:
		return 0.9
	default:
		return 1.0
	}
}

// triggerPacketSize is the request packet size (IP total) for a vector.
func triggerPacketSize(v amplify.Vector) int {
	switch v {
	case amplify.NTP:
		return 36 // 8-byte monlist request + IP/UDP
	case amplify.DNS:
		return 68
	case amplify.Memcached:
		return 43
	default:
		return 64
	}
}

// triggerDirection assigns flow direction: at the tier-2 ISP half the
// trigger traffic is customer-sourced egress; elsewhere it is transit
// ingress.
func triggerDirection(r *netutil.Rand, k Kind) flow.Direction {
	if k == KindTier2 && r.Float64() < 0.5 {
		return flow.Egress
	}
	return flow.Ingress
}

// appendBenignNTP emits legitimate NTP sync traffic: the < 200-byte mode
// of the packet-size distribution. The daily packet budget is spread
// over aggregate server flows so the IXP's sampling still sees it.
func (s *Scenario) appendBenignNTP(buf *dayBuf, r *netutil.Rand, b vantageBases) {
	budget := b.benignNTPPackets * s.cfg.Scale
	const flows = 600
	perFlow := budget / flows
	for i := 0; i < flows; i++ {
		pkts := uint64(poissonish(r, perFlow))
		if pkts == 0 {
			continue
		}
		size := 76
		if r.Float64() < 0.3 {
			size = 48 + r.IntN(120)
		}
		ts := time.Duration(r.Int64N(int64(24 * time.Hour)))
		// Benign NTP is represented by its server-response side (src
		// port 123); the request side toward servers is part of the
		// non-booter share of trigger traffic, so the dst-port-123
		// packet series cleanly reflects the trigger processes.
		buf.add(row{
			src:          randomHost(r),
			dst:          randomHost(r),
			srcPort:      123,
			dstPort:      randomHighPort(r),
			packets:      pkts,
			bytes:        pkts * uint64(size),
			start:        ts,
			end:          ts + time.Duration(1+r.IntN(3600))*time.Second,
			dir:          flow.Direction(r.IntN(2)),
			samplingRate: 1,
		})
	}
}

// appendNoiseDests emits large-packet NTP flows to destinations that
// are not DDoS victims: monlist monitoring pulls, research scanners
// collecting from many servers, and custom applications exchanging bulk
// traffic on the NTP port. They enter the optimistic victim set and are
// cut by the conservative rules, reproducing the paper's per-rule
// reductions ((a) only: 74 %, (b) only: 59 %, both: 78 %).
func (s *Scenario) appendNoiseDests(buf *dayBuf, r *netutil.Rand, b vantageBases) {
	count := poissonish(r, b.noiseDestsPerDay*s.cfg.Scale)
	pool := s.reflectors[amplify.NTP]
	for i := 0; i < count; i++ {
		dst := randomHost(r)
		// Three noise populations: plain low-and-slow pulls (fail both
		// rules), monitoring systems collecting from many servers (pass
		// the sources rule, fail the rate rule), and high-rate custom
		// applications on port 123 (pass the rate rule, fail the
		// sources rule).
		var sources int
		highRate := false
		switch kind := r.Float64(); {
		case kind < 0.60:
			sources = 1 + r.IntN(6)
		case kind < 0.85:
			sources = 11 + r.IntN(30)
		default:
			sources = 1 + r.IntN(3)
			highRate = true
		}
		ts := time.Duration(r.Int64N(int64(24 * time.Hour)))
		for sIdx := 0; sIdx < sources; sIdx++ {
			var pkts uint64
			if highRate {
				// 1.2-3 Gbps sustained for a minute, spread over the
				// destination's few sources.
				perMin := (1.2e9 + 1.8e9*r.Float64()) / 8 * 60 / float64(sources)
				pkts = uint64(perMin / 488)
			} else {
				// Aggregate daily pull traffic: heavy-tailed packet
				// counts so a share survives IXP sampling, but rates
				// stay far below 1 Gbps.
				pkts = uint64(r.Pareto(2000, 0.8))
				if pkts > 400_000 {
					pkts = 400_000
				}
			}
			size := uint64(amplify.MonlistResponseIPLens[(i+sIdx)%2])
			end := 24*time.Hour - time.Second
			if highRate {
				end = ts + time.Minute
			}
			buf.add(row{
				src:          pool[r.IntN(len(pool))],
				dst:          dst,
				srcPort:      123,
				dstPort:      randomHighPort(r),
				packets:      pkts,
				bytes:        pkts * size,
				start:        ts,
				end:          end,
				dir:          flow.Ingress,
				samplingRate: 1,
			})
		}
	}
}

// appendAttacks emits amplified NTP attack traffic to victims. The
// attack process is stationary across the takedown — the paper's
// negative result. Peak rates follow a Pareto tail calibrated so ~9 % of
// victims exceed 1 Gbps (the paper's fraction) and the extreme tail
// reaches the 602 Gbps ceiling at the IXP.
//
// Each attack takes its sources from a fresh permutation of the
// reflector pool. srcIdx is reset to the identity and shuffled before
// every attack: that is exactly r.Perm's work and draws, without a new
// slice per attack.
func (s *Scenario) appendAttacks(buf *dayBuf, r *netutil.Rand, k Kind, b vantageBases) {
	attacks := poissonish(r, b.attacksPerDay*s.cfg.Scale)
	pool := s.reflectors[amplify.NTP]
	srcIdx := make([]int, len(pool))
	swap := func(i, j int) { srcIdx[i], srcIdx[j] = srcIdx[j], srcIdx[i] }
	for i := 0; i < attacks; i++ {
		victim := randomHost(r)
		startMin := r.IntN(24 * 60)
		durMin := 1 + int(r.Pareto(2, 1.5))
		if durMin > 60 {
			durMin = 60
		}
		sources := 12 + int(r.Pareto(4, 1.0))
		if sources > 8500 {
			sources = 8500 // the paper's tier-1 outliers reach ~8500 amplifiers
		}
		// Genuine attacks mostly exceed 1 Gbps: P(rate > 1 Gbps) =
		// 0.8^1.1 ≈ 0.78. Together with the low-rate noise destinations
		// this puts ~9 % of all optimistic destinations above 1 Gbps,
		// matching the paper's Figure 2(c).
		rate := r.Pareto(8e8, 1.1)
		cap := 40e9
		if k == KindIXP {
			cap = 602e9
		}
		if rate > cap {
			rate = cap
		}
		bytesPerMinute := rate / 8 * 60
		for j := range srcIdx {
			srcIdx[j] = j
		}
		r.Shuffle(len(srcIdx), swap)
		if sources > len(srcIdx) {
			sources = len(srcIdx)
		}
		for m := 0; m < durMin; m++ {
			ts := time.Duration(startMin+m) * time.Minute
			perSrc := bytesPerMinute / float64(sources)
			for si := 0; si < sources; si++ {
				size := uint64(amplify.MonlistResponseIPLens[(si+m)%2])
				pkts := uint64(perSrc / float64(size))
				if pkts == 0 {
					pkts = 1
				}
				buf.add(row{
					src:          pool[srcIdx[si]],
					dst:          victim,
					srcPort:      123,
					dstPort:      randomHighPort(r),
					packets:      pkts,
					bytes:        pkts * size,
					start:        ts,
					end:          ts + time.Minute,
					dir:          flow.Ingress,
					samplingRate: 1,
				})
			}
		}
	}
}

// applyVantage filters and samples rows according to the vantage
// point's semantics, in place.
func (s *Scenario) applyVantage(rows []row, r *netutil.Rand, k Kind) []row {
	switch k {
	case KindTier1:
		// Ingress only; customer/end-user sourced traffic excluded.
		kept := rows[:0]
		for _, w := range rows {
			if w.dir == flow.Ingress {
				kept = append(kept, w)
			}
		}
		return kept
	case KindTier2:
		return rows
	default: // IXP: packet-level sampling approximated per record
		rate := s.cfg.IXPSamplingRate
		kept := rows[:0]
		for _, w := range rows {
			sampled := w.packets / uint64(rate)
			if r.Uint64N(uint64(rate)) < w.packets%uint64(rate) {
				sampled++
			}
			if sampled == 0 {
				continue
			}
			avg := w.bytes / w.packets
			w.packets = sampled
			w.bytes = sampled * avg
			w.samplingRate = rate
			kept = append(kept, w)
		}
		return kept
	}
}

// randomHighPort draws an ephemeral port, avoiding the amplification
// service ports so attack and background records never pollute the
// per-port trigger-traffic series.
func randomHighPort(r *netutil.Rand) uint16 {
	for {
		p := uint16(1024 + r.IntN(60000))
		switch p {
		case 123, 53, 11211, 389, 1900, 19:
			continue
		}
		return p
	}
}

// randomHost draws a random public-ish IPv4 host address.
func randomHost(r *netutil.Rand) uint32 {
	return uint32(11+r.IntN(200))<<24 | r.Uint32N(1<<24)
}

// poissonish draws an integer with the given mean (normal approximation
// with sqrt dispersion, clamped at zero — adequate for count processes
// and cheap for the hot path).
func poissonish(r *netutil.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	v := r.Normal(mean, math.Sqrt(mean))
	if v < 0 {
		return 0
	}
	return int(v)
}
