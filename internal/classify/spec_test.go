package classify

import (
	"bytes"
	"cmp"
	"maps"
	"math"
	"net/netip"
	"slices"
	"sort"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/packet"
	"booterscope/internal/telemetry/eventlog"
)

// The paper's definitions, stated by brute force: the oracles the
// attack counter, the classifier and the monitor are tested against.
// State is maps and slices keyed by 16-byte addresses and unix minutes;
// nothing here calls the package's filtering, binning or eviction code,
// only its types, attackID and its output sorters.

// specConfig is cfg with every zero field set to the paper's value: a
// mean packet size above 200 bytes, more than 1 Gbps, more than 10
// amplifiers.
func specConfig(cfg Config) Config {
	return Config{cmp.Or(cfg.SizeThreshold, 200), cmp.Or(cfg.MinRateBps, 1e9), cmp.Or(cfg.MinSources, 10)}
}

// specMatches is the optimistic filter: UDP from source port 123 with a
// mean packet size above the threshold.
func specMatches(r *flow.Record, cfg Config) bool {
	return r.Protocol == packet.IPProtoUDP && r.SrcPort == 123 && r.AvgPacketSize() > cfg.SizeThreshold
}

// specPasses is the conservative filter: a rate above MinRateBps from
// more than MinSources distinct amplifiers.
func specPasses(rate float64, sources int, cfg Config) bool {
	return rate > cfg.MinRateBps && sources > cfg.MinSources
}

// specKey is one (victim, minute) bin: the victim's 16-byte form, so an
// IPv4 address and its IPv4-mapped twin are one victim, and the unix
// second its minute starts.
type specKey struct {
	dst    [16]byte
	minute int64
}

func specKeyOf(r *flow.Record) specKey {
	return specKey{r.Dst.As16(), r.Start.Truncate(time.Minute).Unix()}
}

// specBin is a bin's scaled bytes and distinct sources (16-byte forms);
// overflow and crossed are the monitor's.
type specBin struct {
	bytes    uint64
	sources  map[[16]byte]bool
	overflow uint64
	crossed  bool
}

// rate is the bin's mean rate in bits per second.
func (b *specBin) rate() float64 { return float64(b.bytes) * 8 / 60 }

// specBins bins every record that passes the optimistic filter.
func specBins(recs []flow.Record, cfg Config) map[specKey]*specBin {
	bins := make(map[specKey]*specBin)
	for i := range recs {
		if r := &recs[i]; specMatches(r, cfg) {
			k := specKeyOf(r)
			if bins[k] == nil {
				bins[k] = &specBin{sources: make(map[[16]byte]bool)}
			}
			bins[k].bytes += r.ScaledBytes()
			bins[k].sources[r.Src.As16()] = true
		}
	}
	return bins
}

// specHourly is Figure 5: per hour, how many victims have a bin in it
// that passes the conservative filter, for every hour that has one.
func specHourly(recs []flow.Record, cfg Config) []HourPoint {
	cfg = specConfig(cfg)
	hours := make(map[int64]map[[16]byte]bool)
	for k, b := range specBins(recs, cfg) {
		if specPasses(b.rate(), len(b.sources), cfg) {
			h := time.Unix(k.minute, 0).Truncate(time.Hour).Unix()
			if hours[h] == nil {
				hours[h] = make(map[[16]byte]bool)
			}
			hours[h][k.dst] = true
		}
	}
	out := make([]HourPoint, 0, len(hours))
	for h, victims := range hours {
		out = append(out, HourPoint{Hour: time.Unix(h, 0).UTC(), Count: len(victims)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hour.Before(out[j].Hour) })
	return out
}

// specVictims is Figures 2(b) and 2(c): per victim its peak minute rate,
// its peak and whole-window distinct source counts, and whether the
// peaks pass the conservative filter, ordered by falling peak rate then
// address; and the filter's cut of those victims.
func specVictims(recs []flow.Record, cfg Config) ([]Victim, FilterStats) {
	cfg = specConfig(cfg)
	type dest struct {
		rate  float64
		peak  int
		total map[[16]byte]bool
	}
	dests := make(map[[16]byte]*dest)
	for k, b := range specBins(recs, cfg) {
		d := dests[k.dst]
		if d == nil {
			d = &dest{total: make(map[[16]byte]bool)}
			dests[k.dst] = d
		}
		d.rate, d.peak = max(d.rate, b.rate()), max(d.peak, len(b.sources))
		for s := range b.sources {
			d.total[s] = true
		}
	}
	var out []Victim
	var fs FilterStats
	for dst, d := range dests {
		v := Victim{netip.AddrFrom16(dst).Unmap(), d.rate / 1e9, d.peak, len(d.total), specPasses(d.rate, d.peak, cfg)}
		out = append(out, v)
		fs.Optimistic++
		fs.RateOnly += b2i(d.rate > cfg.MinRateBps)
		fs.SourcesOnly += b2i(d.peak > cfg.MinSources)
		fs.Conservative += b2i(v.Conservative)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].MaxGbps > out[j].MaxGbps || out[i].MaxGbps == out[j].MaxGbps && out[i].Addr.Less(out[j].Addr)
	})
	return out, fs
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// specMonitor is the serial Monitor's documented streaming behaviour,
// computed by full scans. The clock is the newest matched record's
// minute. Each time it advances, and each time a new bin finds the
// table at MaxMinutes, everything behind the horizon, the clock minus
// Retention, goes: bins whose minute is before it, attacks whose newest
// bin is (closed in address order), and alert markers more than twice
// ReAlertAfter old. A matched record opens its victim's attack, or
// extends it to its minute, before it finds or files its bin; an attack
// that the room-making eviction just closed still takes the record. A
// bin keeps at most MaxSourcesPerBin sources and counts the rest. A bin
// over both thresholds crosses once and alerts unless its victim
// alerted less than ReAlertAfter before.
type specMonitor struct {
	cfg                 Config
	retention, reAlert  time.Duration
	maxBins, maxSources int
	events              *eventlog.Log
	trackLog            bool

	clock   int64
	clocked bool
	bins    map[specKey]*specBin
	alerted map[[16]byte]int64
	attacks map[[16]byte]*AttackSummary
	closed  []AttackSummary
	stats   MonitorStats
}

// newSpecMonitor is run's monitor; a cap <= 0 selects its default.
func newSpecMonitor(run refRun, events *eventlog.Log) *specMonitor {
	return &specMonitor{cfg: specConfig(run.cfg), retention: run.retention, reAlert: run.reAlertAfter,
		maxBins:    cmp.Or(max(run.maxMinutes, 0), defaultMaxMinutes),
		maxSources: cmp.Or(max(run.maxSources, 0), defaultMaxSourcesPerBin),
		events:     events, trackLog: run.trackLog,
		bins: make(map[specKey]*specBin), alerted: make(map[[16]byte]int64), attacks: make(map[[16]byte]*AttackSummary)}
}

func (s *specMonitor) Add(r *flow.Record) *Alert {
	s.stats.Records++
	if !specMatches(r, s.cfg) {
		return nil
	}
	s.stats.Matched++
	k := specKeyOf(r)
	if !s.clocked || k.minute > s.clock {
		s.clock, s.clocked = k.minute, true
		s.evict()
	}
	a := s.attacks[k.dst]
	if a == nil {
		a = &AttackSummary{ID: attackID(k.dst, k.minute), Victim: netip.AddrFrom16(k.dst).Unmap(), FirstMinuteUnix: k.minute}
		s.attacks[k.dst] = a
		s.emit("classify_attack_opened", a, eventlog.AInt("minute_unix", k.minute))
	}
	a.LastMinuteUnix = max(a.LastMinuteUnix, k.minute)
	b := s.bins[k]
	if b == nil {
		if len(s.bins) >= s.maxBins {
			s.evict()
		}
		if len(s.bins) >= s.maxBins {
			s.stats.RejectedRecords++
			return nil
		}
		b = &specBin{sources: make(map[[16]byte]bool)}
		s.bins[k] = b
	}
	b.bytes += r.ScaledBytes()
	if src := r.Src.As16(); !b.sources[src] && len(b.sources) == s.maxSources {
		b.overflow++
		s.stats.SourceOverflows++
	} else {
		b.sources[src] = true
	}
	rate, n := b.rate(), len(b.sources)
	a.PeakGbps, a.MaxSources = max(a.PeakGbps, rate/1e9), max(a.MaxSources, n)
	if !specPasses(rate, n, s.cfg) {
		return nil
	}
	a.Crossed = true
	if !b.crossed {
		b.crossed = true
		s.emit("classify_threshold_crossed", a, eventlog.AInt("minute_unix", k.minute),
			eventlog.AFloat("gbps", rate/1e9), eventlog.AInt("sources", int64(n)))
	}
	if last, ok := s.alerted[k.dst]; ok && float64(k.minute-last) < math.Ceil(s.reAlert.Seconds()) {
		return nil
	}
	s.alerted[k.dst] = k.minute
	a.Alerts++
	s.stats.Alerts++
	s.emit("classify_alert_raised", a, eventlog.AFloat("gbps", rate/1e9),
		eventlog.AInt("sources", int64(n)), eventlog.AUint("bytes", b.bytes))
	return &Alert{ID: a.ID, Victim: a.Victim, Minute: time.Unix(k.minute, 0).UTC(), Gbps: rate / 1e9, Sources: n}
}

func (s *specMonitor) evict() {
	horizon := s.clock - int64(math.Ceil(s.retention.Seconds()))
	n := len(s.bins)
	maps.DeleteFunc(s.bins, func(k specKey, _ *specBin) bool { return k.minute < horizon })
	s.stats.EvictedBins += uint64(n - len(s.bins))
	var gone []*AttackSummary
	for dst, a := range s.attacks {
		if a.LastMinuteUnix < horizon {
			gone = append(gone, a)
			delete(s.attacks, dst)
		}
	}
	slices.SortFunc(gone, func(x, y *AttackSummary) int { return x.Victim.Compare(y.Victim) })
	for _, a := range gone {
		if s.trackLog {
			s.closed = append(s.closed, *a)
		}
		s.emit("classify_attack_evicted", a, eventlog.AInt("opened_minute_unix", a.FirstMinuteUnix),
			eventlog.AInt("last_minute_unix", a.LastMinuteUnix))
	}
	alertHorizon := s.clock - int64(math.Floor((2 * s.reAlert).Seconds()))
	maps.DeleteFunc(s.alerted, func(_ [16]byte, last int64) bool { return last < alertHorizon })
}

// emit records one of a's lifecycle events, its victim first.
func (s *specMonitor) emit(kind string, a *AttackSummary, attrs ...eventlog.Attr) {
	s.events.Emit("classify", kind, a.ID, append([]eventlog.Attr{eventlog.A("victim", a.Victim.String())}, attrs...)...)
}

// AttackLog is every closed attack, then every open one, in the
// monitor's output order.
func (s *specMonitor) AttackLog() []AttackSummary {
	if !s.trackLog {
		return nil
	}
	out := slices.Clone(s.closed)
	for _, a := range s.attacks {
		out = append(out, *a)
	}
	sortAttackSummaries(out)
	return out
}

func (s *specMonitor) Snapshot() *MonitorSnapshot {
	snap := &MonitorSnapshot{LatestUnix: s.clock, LatestValid: s.clocked, Stats: s.stats,
		Bins: []BinSnapshot{}, Alerted: []AlertMarker{}}
	for k, b := range s.bins {
		srcs := make([][16]byte, 0, len(b.sources))
		for src := range b.sources {
			srcs = append(srcs, src)
		}
		slices.SortFunc(srcs, func(x, y [16]byte) int { return bytes.Compare(x[:], y[:]) })
		snap.Bins = append(snap.Bins, BinSnapshot{k.dst, k.minute, b.bytes, srcs, b.overflow})
	}
	sortBins(snap.Bins)
	for dst, last := range s.alerted {
		snap.Alerted = append(snap.Alerted, AlertMarker{dst, last})
	}
	sortMarkers(snap.Alerted)
	for dst, a := range s.attacks {
		snap.Attacks = append(snap.Attacks, AttackSnapshot{dst, a.ID, a.FirstMinuteUnix, a.LastMinuteUnix})
	}
	sortAttacks(snap.Attacks)
	return snap
}
