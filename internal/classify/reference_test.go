package classify

import (
	"net/netip"
	"sort"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/packet"
	"booterscope/internal/telemetry/eventlog"
)

// The reference the Figure 5 counter is tested against: AttackCounter
// as it was before its source sets were capped and before a merge into
// an empty counter adopted the other's maps — every distinct source of
// every uncounted minute bin is recorded, and every merge re-inserts
// and re-checks bin by bin. Only the names changed (ref prefix) and
// the hotpath directives went. Nothing here is reachable from
// production code.

// refAttackCounter counts systems under attack per hour using the
// conservative filter — the Figure 5 series. A destination is "under
// attack" in an hour if any of its minutes in that hour passes both
// rules.
type refAttackCounter struct {
	cfg Config
	// hours maps hour start -> set of victims. Keys are flat 16-byte
	// addresses rather than netip.Addr: the counter sits on the
	// per-record hot path, and pointer-free keys keep the maps out of
	// both the write barrier and the garbage collector's scan.
	hours map[int64]map[[16]byte]struct{}
	// minuteState tracks per (dest, minute) aggregates; arena is the
	// chunked allocator the bins come from (one allocation per 256
	// bins instead of one each — the counter's dominant allocation).
	minutes map[refMinuteKey]*refMinuteAgg
	arena   []refMinuteAgg
	// lastKeys/lastAggs memoize recent minute bins in a small
	// direct-mapped cache indexed by the victim's low address byte:
	// attack records arrive in per-victim bursts, but a handful of
	// victims interleave within any time slice, so one entry per
	// low-byte slot keeps the hit rate high where a single-entry memo
	// thrashes. Purely a cache — misses fall through to the map.
	lastKeys [refMemoWays]refMinuteKey
	lastAggs [refMemoWays]*refMinuteAgg
}

// refMemoWays sizes the refAttackCounter minute-bin memo (a power of two).
const refMemoWays = 8

type refMinuteKey struct {
	dst    [16]byte
	minute int64
}

// refSmallSources is the inline source-set capacity of a minute bin: one
// past the (default) conservative threshold, so a bin can prove
// "> conservativeMinSources distinct amplifiers" without ever
// allocating a map. Only bins that overflow it — or runs with a larger
// configured MinSources — spill to a real map.
const refSmallSources = conservativeMinSources + 1

type refMinuteAgg struct {
	bytes uint64
	// counted: this minute already crossed the thresholds and its
	// (hour, dst) entry is recorded — later records in the same minute
	// can skip the threshold math, since hour membership never retracts.
	counted bool
	// nsmall/small are the inline distinct-source set; sources is the
	// map it spills into (nil until then). Reads go through numSources.
	nsmall  uint8
	small   [refSmallSources][16]byte
	sources map[[16]byte]struct{}
}

// addSource records one distinct amplifier address.
func (m *refMinuteAgg) addSource(src [16]byte) {
	if m.sources == nil {
		for i := 0; i < int(m.nsmall); i++ {
			if m.small[i] == src {
				return
			}
		}
		if int(m.nsmall) < refSmallSources {
			m.small[m.nsmall] = src
			m.nsmall++
			return
		}
		m.sources = make(map[[16]byte]struct{}, 2*refSmallSources)
		for i := range m.small {
			m.sources[m.small[i]] = struct{}{}
		}
	}
	m.sources[src] = struct{}{}
}

// numSources reports the distinct amplifier count.
func (m *refMinuteAgg) numSources() int {
	if m.sources != nil {
		return len(m.sources)
	}
	return int(m.nsmall)
}

// eachSource visits every recorded source (Merge's fusion walk).
func (m *refMinuteAgg) eachSource(f func([16]byte)) {
	if m.sources != nil {
		for s := range m.sources {
			f(s)
		}
		return
	}
	for i := 0; i < int(m.nsmall); i++ {
		f(m.small[i])
	}
}

// dropSources empties the set — frozen bins never read it again.
func (m *refMinuteAgg) dropSources() {
	m.nsmall = 0
	m.sources = nil
}

// newRefAttackCounter returns an empty counter.
func newRefAttackCounter(cfg Config) *refAttackCounter {
	return &refAttackCounter{
		cfg:     cfg.withDefaults(),
		hours:   make(map[int64]map[[16]byte]struct{}),
		minutes: make(map[refMinuteKey]*refMinuteAgg),
	}
}

// Add feeds one record (applying the optimistic pre-filter) and updates
// the hour buckets.
func (a *refAttackCounter) Add(r *flow.Record) {
	// a.cfg is already defaulted (newRefAttackCounter), so apply the
	// amplified-NTP predicate directly instead of re-deriving defaults
	// per record through isAmplifiedNTP.
	if !isNTPFlow(r) || r.AvgPacketSize() <= a.cfg.SizeThreshold {
		return
	}
	a.add(r.Dst.As16(), r.Src.As16(), r.Start.Unix(), r.ScaledBytes())
}

// AddCols is Add over row i of a columnar slab: the filter and every
// input of the shared body come straight from the column vectors — the
// counter's hot path never materializes a flow.Record.
func (a *refAttackCounter) AddCols(c *flow.Columns, i int) {
	if !isNTPFlowCols(c, i) || c.AvgPacketSize(i) <= a.cfg.SizeThreshold {
		return
	}
	a.add(c.DstAs16(i), c.SrcAs16(i), c.StartSec[i], c.ScaledBytes(i))
}

// add counts one record that passed the filter — the one aggregation
// body behind both entry points.
func (a *refAttackCounter) add(dst, src [16]byte, startSec int64, bytes uint64) {
	// Truncate in unix-seconds arithmetic: equivalent to
	// Start.UTC().Truncate(time.Minute) for the study's post-1970
	// timestamps and far cheaper on the per-record path.
	minute := startSec - startSec%60
	key := refMinuteKey{dst: dst, minute: minute}
	w := key.dst[15] & (refMemoWays - 1)
	agg := a.lastAggs[w]
	if agg == nil || key != a.lastKeys[w] {
		var ok bool
		agg, ok = a.minutes[key]
		if !ok {
			if len(a.arena) == 0 {
				a.arena = make([]refMinuteAgg, 256)
			}
			agg = &a.arena[0]
			a.arena = a.arena[1:]
			a.minutes[key] = agg
		}
		a.lastKeys[w], a.lastAggs[w] = key, agg
	}
	// A counted bin is frozen: its (hour, dst) entry is recorded and
	// hour membership never retracts, so further bytes/source tracking
	// cannot change any output — including Merge's re-check, which only
	// ever adds hour entries. Skipping the source-set insert here drops
	// the map traffic for the flood-heavy tail of every attack minute.
	if agg.counted {
		return
	}
	agg.bytes += bytes
	agg.addSource(src)

	rate := float64(agg.bytes) * 8 / 60
	if rate > a.cfg.MinRateBps && agg.numSources() > a.cfg.MinSources {
		hour := minute - minute%3600
		set, ok := a.hours[hour]
		if !ok {
			set = make(map[[16]byte]struct{})
			a.hours[hour] = set
		}
		set[key.dst] = struct{}{}
		agg.counted = true
		// Frozen bins never read their source set again (Merge visits
		// an empty set); dropping it here releases the per-minute
		// spoofed-source sets — by far the counter's largest live
		// memory — as soon as they stop mattering.
		agg.dropSources()
	}
}

// Merge folds another counter's state into a; other must not be used
// afterwards. Hour sets union; fused minute bins are re-checked
// against the thresholds, which is exact: an uncounted bin's bytes and
// source counts only grow under fusion, and a counted bin — frozen at
// the moment it crossed the thresholds — already contributed its
// (hour, dst) entry to the hour sets being unioned, so the re-check
// has nothing left to prove for it.
func (a *refAttackCounter) Merge(other *refAttackCounter) {
	if other == nil {
		return
	}
	for k, oagg := range other.minutes {
		agg, ok := a.minutes[k]
		if !ok {
			a.minutes[k] = oagg
			continue
		}
		if agg.counted {
			// Frozen fused bin: its hour entry is already recorded, so
			// the fused stats can stay frozen too.
			continue
		}
		agg.bytes += oagg.bytes
		oagg.eachSource(agg.addSource)
	}
	for hour, oset := range other.hours {
		set, ok := a.hours[hour]
		if !ok {
			a.hours[hour] = oset
			continue
		}
		for d := range oset {
			set[d] = struct{}{}
		}
	}
	for k := range other.minutes {
		agg := a.minutes[k]
		rate := float64(agg.bytes) * 8 / 60
		if rate > a.cfg.MinRateBps && agg.numSources() > a.cfg.MinSources {
			hour := k.minute - k.minute%3600
			set, ok := a.hours[hour]
			if !ok {
				set = make(map[[16]byte]struct{})
				a.hours[hour] = set
			}
			set[k.dst] = struct{}{}
		}
	}
}

// Series returns the hourly counts in chronological order.
func (a *refAttackCounter) Series() []HourPoint {
	keys := make([]int64, 0, len(a.hours))
	for k := range a.hours {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]HourPoint, len(keys))
	for i, k := range keys {
		out[i] = HourPoint{Hour: time.Unix(k, 0).UTC(), Count: len(a.hours[k])}
	}
	return out
}

// The reference the streaming Monitor is tested against: its hot path
// as it was before the bins carried their attack, before the memo, the
// 16-byte victim keys, the ordered minute index, the per-slab counters
// and the recorder guard — addMatched, evict, minuteIndex, openAttack,
// evictAttacks and onCrossing, with their flow.SourceSet use through
// netip.Addr. Only the names changed (ref prefix), the hotpath
// directives went, and the monitor's own counters and reading methods
// (Stats, AttackLog, snapshot) are reduced to what the comparison
// needs. It keys victims by netip.Addr, so it is exact only for
// canonical addresses (netip.AddrFrom16(a.As16()).Unmap()): that is
// what TestMonitorMatchesReference feeds it.

// refMonAgg is one (victim, minute) bin with a bounded source set.
type refMonAgg struct {
	bytes   uint64
	sources *flow.SourceSet
	crossed bool
}

type refMonitor struct {
	cfg              Config
	Retention        time.Duration
	ReAlertAfter     time.Duration
	MaxMinutes       int
	MaxSourcesPerBin int
	Events           *eventlog.Log
	TrackAttackLog   bool

	minutes   map[minuteKey]*refMonAgg
	alerted   map[netip.Addr]int64
	attacks   map[netip.Addr]*attackState
	attackLog []AttackSummary
	latest    int64

	binsAt      refMinuteIndex[minuteKey]
	attacksAt   refMinuteIndex[netip.Addr]
	alertedAt   refMinuteIndex[netip.Addr]
	expired     []netip.Addr
	expiredBins []minuteKey
	m           *monitorMetrics
	// late is test bookkeeping: a matched record arrived behind the
	// horizon.
	late bool
}

func newRefMonitor(cfg Config) *refMonitor {
	return &refMonitor{
		cfg:              cfg.withDefaults(),
		Retention:        10 * time.Minute,
		ReAlertAfter:     30 * time.Minute,
		MaxMinutes:       defaultMaxMinutes,
		MaxSourcesPerBin: defaultMaxSourcesPerBin,
		minutes:          make(map[minuteKey]*refMonAgg),
		alerted:          make(map[netip.Addr]int64),
		attacks:          make(map[netip.Addr]*attackState),
		latest:           noClock,
		binsAt:           make(refMinuteIndex[minuteKey]),
		attacksAt:        make(refMinuteIndex[netip.Addr]),
		alertedAt:        make(refMinuteIndex[netip.Addr]),
		m:                newMonitorMetrics(),
	}
}

type refMinuteIndex[K any] map[int64][]K

func (ix refMinuteIndex[K]) add(minute int64, k K) { ix[minute] = append(ix[minute], k) }

// expire appends to dst every key filed under a minute before horizon
// and forgets those minutes.
func (ix refMinuteIndex[K]) expire(dst []K, horizon int64) []K {
	for minute, keys := range ix {
		if minute < horizon {
			dst = append(dst, keys...)
			delete(ix, minute)
		}
	}
	return dst
}

func (m *refMonitor) noteDetection(proto uint8, srcPort uint16, packets, bytes uint64) {
	if proto != packet.IPProtoUDP {
		return
	}
	for i, port := range reflectionPorts {
		if port != srcPort {
			continue
		}
		var avgSize float64
		if packets != 0 {
			avgSize = float64(bytes) / float64(packets)
		}
		if avgSize > m.cfg.SizeThreshold {
			m.m.detections.With(reflectionLabels[i]).Inc()
		}
		return
	}
}

func (m *refMonitor) maxMinutes() int {
	if m.MaxMinutes <= 0 {
		return defaultMaxMinutes
	}
	return m.MaxMinutes
}

func (m *refMonitor) maxSourcesPerBin() int {
	if m.MaxSourcesPerBin <= 0 {
		return defaultMaxSourcesPerBin
	}
	return m.MaxSourcesPerBin
}

func (m *refMonitor) Add(r *flow.Record) *Alert {
	m.m.records.Inc()
	m.noteDetection(r.Protocol, r.SrcPort, r.Packets, r.Bytes)
	if !isAmplifiedNTP(r, m.cfg) {
		return nil
	}
	return m.addMatched(r.Dst, r.Src, r.Start.Unix(), r.ScaledBytes(), r.Start.Unix())
}

func (m *refMonitor) AdvanceTo(unixSec int64) {
	if wm := floorMinute(unixSec); wm > m.latest {
		m.latest = wm
		m.evict()
	}
}

func (m *refMonitor) addMatched(dst, src netip.Addr, startSec int64, scaledBytes uint64, watermarkUnix int64) *Alert {
	m.m.matched.Inc()
	minute := floorMinute(startSec)
	m.AdvanceTo(watermarkUnix)
	// Open (or extend) the victim's attack after the clock advance so
	// eviction of a previous attack is observed first — the same order
	// the serial and sharded monitors both see.
	st := m.openAttack(dst, minute)
	key := minuteKey{dst: dst.As16(), minute: minute}
	agg, ok := m.minutes[key]
	if !ok {
		if len(m.minutes) >= m.maxMinutes() {
			m.evict()
		}
		if len(m.minutes) >= m.maxMinutes() {
			// Table full of in-retention bins: refuse the new bin but
			// account for it. Established victims keep aggregating.
			m.m.rejected.Inc()
			return nil
		}
		agg = &refMonAgg{sources: flow.NewSourceSet(m.maxSourcesPerBin())}
		m.minutes[key] = agg
		m.binsAt.add(minute, key)
		m.m.occupancy.Add(1)
	}
	agg.bytes += scaledBytes
	if !agg.sources.Add(src) {
		m.m.overflows.Inc()
	}

	rate := float64(agg.bytes) * 8 / 60
	if m.TrackAttackLog {
		if rate > st.peakBps {
			st.peakBps = rate
		}
		if n := agg.sources.Len(); n > st.maxSources {
			st.maxSources = n
		}
	}
	if rate <= m.cfg.MinRateBps || agg.sources.Len() <= m.cfg.MinSources {
		return nil
	}
	return m.onCrossing(st, agg, dst, minute, rate)
}

func (m *refMonitor) onCrossing(st *attackState, agg *refMonAgg, dst netip.Addr, minute int64, rate float64) *Alert {
	st.crossed = true
	if !agg.crossed {
		agg.crossed = true
		m.Events.Emit("classify", "classify_threshold_crossed", st.id,
			eventlog.A("victim", dst.String()),
			eventlog.AInt("minute_unix", minute),
			eventlog.AFloat("gbps", rate/1e9),
			eventlog.AInt("sources", int64(agg.sources.Len())))
	}
	if last, ok := m.alerted[dst]; ok && minute-last < ceilSeconds(m.ReAlertAfter) {
		return nil
	}
	m.alerted[dst] = minute
	m.alertedAt.add(minute, dst)
	st.alerts++
	m.m.alerts.Inc()
	m.Events.Emit("classify", "classify_alert_raised", st.id,
		eventlog.A("victim", dst.String()),
		eventlog.AFloat("gbps", rate/1e9),
		eventlog.AInt("sources", int64(agg.sources.Len())),
		eventlog.AUint("bytes", agg.bytes))
	return &Alert{
		ID:      st.id,
		Victim:  dst,
		Minute:  time.Unix(minute, 0).UTC(),
		Gbps:    rate / 1e9,
		Sources: agg.sources.Len(),
	}
}

func (m *refMonitor) evict() {
	if m.latest == noClock {
		return
	}
	horizon := m.latest - ceilSeconds(m.Retention)
	// Every live bin is filed exactly once, under its own minute, so
	// every expired key is a live bin.
	m.expiredBins = m.binsAt.expire(m.expiredBins[:0], horizon)
	for _, key := range m.expiredBins {
		delete(m.minutes, key)
	}
	dropped := len(m.expiredBins)
	m.m.evicted.Add(uint64(dropped))
	m.m.occupancy.Add(-float64(dropped))
	m.evictAttacks(horizon)
	alertHorizon := m.latest - floorSeconds(2*m.ReAlertAfter)
	m.expired = m.alertedAt.expire(m.expired[:0], alertHorizon)
	for _, victim := range m.expired {
		// A marker filed under an old minute may since have been renewed.
		if last, ok := m.alerted[victim]; ok && last < alertHorizon {
			delete(m.alerted, victim)
		}
	}
}

func (m *refMonitor) openAttack(victim netip.Addr, minuteUnix int64) *attackState {
	st, ok := m.attacks[victim]
	if !ok {
		st = &attackState{
			id:         attackID(victim.As16(), minuteUnix),
			openedUnix: minuteUnix,
			lastUnix:   minuteUnix,
		}
		m.attacks[victim] = st
		m.attacksAt.add(minuteUnix, victim)
		m.Events.Emit("classify", "classify_attack_opened", st.id,
			eventlog.A("victim", victim.String()),
			eventlog.AInt("minute_unix", minuteUnix))
	}
	if minuteUnix > st.lastUnix {
		st.lastUnix = minuteUnix
		m.attacksAt.add(minuteUnix, victim)
	}
	return st
}

func (m *refMonitor) evictAttacks(horizonUnix int64) {
	victims := m.attacksAt.expire(m.expired[:0], horizonUnix)
	m.expired = victims
	if len(victims) == 0 {
		return
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].Compare(victims[j]) < 0 })
	for _, v := range victims {
		st, ok := m.attacks[v]
		if !ok || st.lastUnix >= horizonUnix {
			continue // filed under several expired minutes and closed already, or still live
		}
		delete(m.attacks, v)
		if m.TrackAttackLog {
			m.attackLog = append(m.attackLog, summarize(v, st))
		}
		m.Events.Emit("classify", "classify_attack_evicted", st.id,
			eventlog.A("victim", v.String()),
			eventlog.AInt("opened_minute_unix", st.openedUnix),
			eventlog.AInt("last_minute_unix", st.lastUnix))
	}
}

func (m *refMonitor) Stats() MonitorStats {
	return MonitorStats{
		Records:         m.m.records.Value(),
		Matched:         m.m.matched.Value(),
		Alerts:          m.m.alerts.Value(),
		RejectedRecords: m.m.rejected.Value(),
		EvictedBins:     m.m.evicted.Value(),
		SourceOverflows: m.m.overflows.Value(),
	}
}

func (m *refMonitor) AttackLog() []AttackSummary {
	if !m.TrackAttackLog {
		return nil
	}
	out := append([]AttackSummary(nil), m.attackLog...)
	for v, st := range m.attacks {
		out = append(out, summarize(v, st))
	}
	sortAttackSummaries(out)
	return out
}

func (m *refMonitor) Snapshot() *MonitorSnapshot {
	s := &MonitorSnapshot{Stats: m.Stats()}
	if m.latest != noClock {
		s.LatestUnix, s.LatestValid = m.latest, true
	}
	s.Bins = make([]BinSnapshot, 0, len(m.minutes))
	for key, agg := range m.minutes {
		s.Bins = append(s.Bins, BinSnapshot{
			Victim:         key.dst,
			MinuteUnix:     key.minute,
			Bytes:          agg.bytes,
			Sources:        agg.sources.Snapshot(),
			SourceOverflow: agg.sources.Overflow(),
		})
	}
	sortBins(s.Bins)
	s.Alerted = make([]AlertMarker, 0, len(m.alerted))
	for victim, last := range m.alerted {
		s.Alerted = append(s.Alerted, AlertMarker{Victim: victim.As16(), MinuteUnix: last})
	}
	sortMarkers(s.Alerted)
	for victim, st := range m.attacks {
		s.Attacks = append(s.Attacks, AttackSnapshot{
			Victim:     victim.As16(),
			ID:         st.id,
			OpenedUnix: st.openedUnix,
			LastUnix:   st.lastUnix,
		})
	}
	sortAttacks(s.Attacks)
	return s
}
