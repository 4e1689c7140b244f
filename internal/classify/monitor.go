package classify

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"sort"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/packet"
	"booterscope/internal/telemetry"
	"booterscope/internal/telemetry/eventlog"
)

// Alert reports a victim newly crossing the conservative attack
// thresholds — the event a live collector raises to operators.
type Alert struct {
	// ID is the attack's stable lifecycle identifier (see attackID):
	// every flight-recorder event of the same attack — from the first
	// suspicious bin through FlowSpec announcement and withdrawal —
	// carries it, so downstream consumers can join alerts to traces.
	ID     uint64
	Victim netip.Addr
	// Minute is the minute bin that crossed the thresholds.
	Minute time.Time
	// Gbps is the victim's rate in that minute.
	Gbps float64
	// Sources is the amplifier count in that minute.
	Sources int
}

// String formats the alert as a log line.
func (a Alert) String() string {
	return fmt.Sprintf("%s ALERT %v under NTP amplification: %.2f Gbps from %d reflectors",
		a.Minute.Format("2006-01-02 15:04"), a.Victim, a.Gbps, a.Sources)
}

// Capacity defaults for the monitor's bounded state.
const (
	// defaultMaxMinutes caps tracked (victim, minute) bins.
	defaultMaxMinutes = 1 << 17
	// defaultMaxSourcesPerBin caps each bin's distinct-source set.
	defaultMaxSourcesPerBin = 1 << 16
)

// MonitorStats is a snapshot of the monitor's ingest and capacity
// accounting. Nothing the monitor discards is silent: every record
// refused at a capacity limit and every bin evicted is counted here.
type MonitorStats struct {
	// Records counts records fed to Add; Matched counts those passing
	// the optimistic amplified-NTP filter.
	Records uint64
	Matched uint64
	// Alerts counts alerts raised.
	Alerts uint64
	// RejectedRecords counts matched records refused because the
	// victim table was at MaxMinutes and no bin could be created —
	// graceful degradation under adversarial victim-address churn.
	RejectedRecords uint64
	// EvictedBins counts minute bins dropped past the retention
	// horizon.
	EvictedBins uint64
	// SourceOverflows counts source addresses not tracked because a
	// bin's source set was at MaxSourcesPerBin.
	SourceOverflows uint64
}

// MonitorHealth condenses the stats into an operational verdict.
type MonitorHealth struct {
	ActiveMinutes int
	ActiveAlerts  int
	// Saturated reports the victim table at its capacity bound: new
	// victims are not being tracked until retention frees space.
	Saturated       bool
	RejectedRecords uint64
	SourceOverflows uint64
}

// String formats the health snapshot as a log line.
func (h MonitorHealth) String() string {
	state := "healthy"
	if h.Saturated || h.RejectedRecords > 0 {
		state = "degraded"
	}
	return fmt.Sprintf("%s: %d minute bins, %d live alerts, %d records rejected at capacity, %d source overflows",
		state, h.ActiveMinutes, h.ActiveAlerts, h.RejectedRecords, h.SourceOverflows)
}

// monAgg is one (victim, minute) bin with a bounded source set.
type monAgg struct {
	bytes   uint64
	sources flow.SourceSet
	// attack is the victim's open attack, carried so a record that
	// finds its bin needs no second lookup. A bin never outlives it:
	// the attack's newest bin minute is at least this bin's, so the
	// eviction that closes the attack drops the bin too. nil when the
	// attack the bin opened under was closed before the bin was filed
	// (a capacity eviction in between) or is unknown (a restored bin
	// newer than its victim's attack): the next record opens or
	// extends the victim's attack and links it.
	attack *attackState
	// crossed latches the bin's first threshold crossing so the
	// lifecycle event fires once per bin. Both rate and source count
	// grow monotonically within a bin, so the latch equals "the
	// thresholds hold now" and restoreBin recomputes it instead of
	// persisting it.
	crossed bool
}

// Monitor is the streaming counterpart of Classifier: it consumes flow
// records as a collector receives them and emits one Alert per victim
// when it first passes the conservative filter. State for minutes older
// than the retention horizon is evicted, the victim table is capped at
// MaxMinutes bins, and per-bin source sets are capped at
// MaxSourcesPerBin, so a Monitor survives adversarial source-address
// churn with accounted (not silent) degradation and can run
// indefinitely.
type Monitor struct {
	cfg Config
	// Retention bounds how long minute state is kept (default 10
	// minutes).
	Retention time.Duration
	// ReAlertAfter re-raises for a victim still under attack after this
	// long (default 30 minutes).
	ReAlertAfter time.Duration
	// MaxMinutes caps tracked (victim, minute) bins; at the cap, new
	// bins are refused and counted (default defaultMaxMinutes; <= 0
	// selects the default).
	MaxMinutes int
	// MaxSourcesPerBin caps each bin's distinct-source set (default
	// defaultMaxSourcesPerBin; <= 0 selects the default).
	MaxSourcesPerBin int
	// Events, when set, receives attack lifecycle events; nil turns
	// them off, and then no event attribute is ever built. Set before
	// the first Add.
	Events *eventlog.Log
	// TrackAttackLog, when set before the first Add, retains an
	// AttackSummary for every attack (peak rate, interval, threshold
	// verdict) readable via AttackLog after the stream ends. Off by
	// default: a long-running daemon must not accumulate unbounded
	// per-attack history; the federation correlator turns it on for
	// bounded offline scans.
	TrackAttackLog bool

	// Victims are keyed by their 16-byte form, which is how the
	// monitor takes every address: netip.AddrFrom16(a.As16()).Unmap(),
	// as the bins, pipe.KeyDst and the checkpoint do. A netip.Addr is
	// built only for an Alert, an event or an attack summary.
	minutes map[minuteKey]*monAgg
	// alerted maps a victim to the unix minute of its last alert.
	alerted   map[[16]byte]int64
	attacks   map[[16]byte]*attackState
	attackLog []AttackSummary
	// latest is the eviction clock: the unix second of the newest whole
	// minute a watermark has reached, noClock before the first. Minutes,
	// horizons and the clock are plain integers on the per-record path;
	// a time.Time is built only for an Alert.
	latest int64
	// The by-minute indexes let eviction visit what expired instead of
	// sweeping the tables on every minute advance: bins are filed under
	// their minute, attacks under their newest bin's minute (again each
	// time it advances), alert markers under the alert's minute. They
	// are derived state — rebuilt by Restore, never checkpointed.
	binsAt    minuteIndex[minuteKey]
	attacksAt minuteIndex[[16]byte]
	alertedAt minuteIndex[[16]byte]
	// expired and expiredBins are eviction scratch.
	expired     [][16]byte
	expiredBins []minuteKey
	// memoKeys/memoAggs memoize recent bins, direct-mapped by the
	// victim's low address byte as binTable's memo is. Purely a
	// cache of the minutes table: emptied whenever eviction drops a
	// bin, and on Restore.
	memoKeys [memoWays]minuteKey
	memoAggs [memoWays]*monAgg
	// detected caches the per-protocol detection counters, resolved
	// from the shared vector on a protocol's first detection.
	detected [len(reflectionLabels)]*telemetry.Counter
	m        *monitorMetrics
}

// noClock is Monitor.latest before any matched record: below every
// real minute, so the first watermark always advances it.
const noClock = math.MinInt64

// minuteIndex files keys under a unix minute. Nothing is ever unfiled:
// a key whose owner has moved on (an attack that grew, a victim that
// re-alerted) stays under its old minute until that minute expires,
// and whoever expires it checks the key against its table.
//
// The filed minutes are kept in ascending order. The clock only moves
// forward and almost every key is filed at the newest minute, so add
// nearly always appends to the last bucket, and expire pops buckets
// off the front until it meets the horizon: neither visits a minute
// that is not expiring.
type minuteIndex[K any] struct {
	buckets []minuteBucket[K]
}

// minuteBucket is the keys filed under one minute.
type minuteBucket[K any] struct {
	minute int64
	keys   []K
}

// add files k under minute.
func (ix *minuteIndex[K]) add(minute int64, k K) {
	n := len(ix.buckets)
	if n > 0 && ix.buckets[n-1].minute == minute {
		ix.buckets[n-1].keys = append(ix.buckets[n-1].keys, k)
		return
	}
	i := n
	if n > 0 && minute < ix.buckets[n-1].minute {
		// A late key: find its minute among the older buckets.
		i = sort.Search(n, func(j int) bool { return ix.buckets[j].minute >= minute })
		if ix.buckets[i].minute == minute {
			ix.buckets[i].keys = append(ix.buckets[i].keys, k)
			return
		}
	}
	ix.buckets = slices.Insert(ix.buckets, i, minuteBucket[K]{minute: minute, keys: []K{k}})
}

// expire appends to dst every key filed under a minute before horizon
// and forgets those minutes.
//
//bsvet:hotpath
func (ix *minuteIndex[K]) expire(dst []K, horizon int64) []K {
	i := 0
	for ; i < len(ix.buckets) && ix.buckets[i].minute < horizon; i++ {
		dst = append(dst, ix.buckets[i].keys...)
	}
	if i > 0 {
		n := copy(ix.buckets, ix.buckets[i:])
		clear(ix.buckets[n:])
		ix.buckets = ix.buckets[:n]
	}
	return dst
}

// ceilSeconds and floorSeconds round a duration to whole seconds, so
// the whole-minute clock compares against Retention and ReAlertAfter
// exactly as time.Time arithmetic did.
func ceilSeconds(d time.Duration) int64 {
	s := int64(d / time.Second)
	if d%time.Second > 0 {
		s++
	}
	return s
}

func floorSeconds(d time.Duration) int64 {
	s := int64(d / time.Second)
	if d%time.Second < 0 {
		s--
	}
	return s
}

// monitorMetrics are the monitor's accounting counters as telemetry
// atomics: MonitorStats is a thin view over them, and RegisterTelemetry
// attaches the same objects to a registry.
type monitorMetrics struct {
	records   *telemetry.Counter
	matched   *telemetry.Counter
	alerts    *telemetry.Counter
	rejected  *telemetry.Counter
	evicted   *telemetry.Counter
	overflows *telemetry.Counter
	// detections counts amplification-shaped records by reflection
	// protocol (ntp, dns, cldap, memcached, ...), one scrape showing the
	// vector mix the monitor is seeing.
	detections *telemetry.CounterVec
	// occupancy mirrors len(minutes): the victim table's live bin count.
	occupancy *telemetry.Gauge
}

func newMonitorMetrics() *monitorMetrics {
	return &monitorMetrics{
		records:    telemetry.NewCounter(),
		matched:    telemetry.NewCounter(),
		alerts:     telemetry.NewCounter(),
		rejected:   telemetry.NewCounter(),
		evicted:    telemetry.NewCounter(),
		overflows:  telemetry.NewCounter(),
		detections: telemetry.NewCounterVec("protocol").SetMaxCardinality(16),
		occupancy:  telemetry.NewGauge(),
	}
}

// NewMonitor returns an empty streaming detector.
func NewMonitor(cfg Config) *Monitor {
	return newMonitorWith(cfg, newMonitorMetrics())
}

// newMonitorWith builds a monitor over an existing metrics struct —
// the sharded monitor hands every shard the same one, so counters and
// the (additively maintained) occupancy gauge aggregate across shards
// without a merge step.
func newMonitorWith(cfg Config, m *monitorMetrics) *Monitor {
	return &Monitor{
		cfg:              cfg.withDefaults(),
		Retention:        10 * time.Minute,
		ReAlertAfter:     30 * time.Minute,
		MaxMinutes:       defaultMaxMinutes,
		MaxSourcesPerBin: defaultMaxSourcesPerBin,
		minutes:          make(map[minuteKey]*monAgg),
		alerted:          make(map[[16]byte]int64),
		attacks:          make(map[[16]byte]*attackState),
		latest:           noClock,
		m:                m,
	}
}

// RegisterTelemetry attaches the monitor's accounting to r under the
// classify_monitor_* names.
//
//bsvet:allow deadcode oracle: TestMonitorRunFrozen registers the serial monitor's counters with it
func (m *Monitor) RegisterTelemetry(r *telemetry.Registry) {
	r.MustRegister("classify_monitor_records_total", "records fed to Add", m.m.records)
	r.MustRegister("classify_monitor_matched_total", "records passing the optimistic amplified-NTP filter", m.m.matched)
	r.MustRegister("classify_monitor_alerts_total", "alerts raised", m.m.alerts)
	r.MustRegister("classify_monitor_rejected_records_total", "matched records refused at the victim-table cap", m.m.rejected)
	r.MustRegister("classify_monitor_evicted_bins_total", "minute bins dropped past the retention horizon", m.m.evicted)
	r.MustRegister("classify_monitor_source_overflows_total", "sources untracked at the per-bin cap", m.m.overflows)
	r.MustRegister("classify_monitor_detections_total", "amplification-shaped records by reflection protocol", m.m.detections)
	r.MustRegister("classify_monitor_active_minute_bins", "victim-table occupancy (live minute bins)", m.m.occupancy)
}

// reflectionPorts are the well-known amplification source ports, and
// reflectionLabels their protocol labels on the detection counter.
var (
	reflectionPorts  = [...]uint16{NTPPort, 53, 389, 11211, 1900, 19}
	reflectionLabels = [...]string{"ntp", "dns", "cldap", "memcached", "ssdp", "chargen"}
)

// detection classifies an amplification-shaped record (UDP from a
// well-known reflection port with amplified payload sizes): the index
// of its protocol in reflectionLabels, or -1 for a record that looks
// benign and counts nowhere.
func (m *Monitor) detection(proto uint8, srcPort uint16, packets, bytes uint64) int {
	if proto != packet.IPProtoUDP {
		return -1
	}
	for i, port := range reflectionPorts {
		if port != srcPort {
			continue
		}
		var avgSize float64 // flow.Record.AvgPacketSize
		if packets != 0 {
			avgSize = float64(bytes) / float64(packets)
		}
		if avgSize > m.cfg.SizeThreshold {
			return i
		}
		return -1
	}
	return -1
}

// detections returns protocol i's detection counter, resolved from the
// shared vector on the protocol's first detection.
func (m *Monitor) detections(i int) *telemetry.Counter {
	if m.detected[i] == nil {
		m.detected[i] = m.m.detections.With(reflectionLabels[i])
	}
	return m.detected[i]
}

// slabTally accumulates a slab's shares of the counters every shard
// shares, so a shard adds to those atomics once per batch rather than
// once per row.
type slabTally struct {
	records, matched uint64
	detected         [len(reflectionLabels)]uint64
}

func (t *slabTally) detect(i int) {
	if i >= 0 {
		t.detected[i]++
	}
}

// count adds a slab's tally to the shared counters.
func (m *Monitor) count(t *slabTally) {
	m.m.records.Add(t.records)
	if t.matched > 0 {
		m.m.matched.Add(t.matched)
	}
	for i, n := range t.detected {
		if n > 0 {
			m.detections(i).Add(n)
		}
	}
}

func (m *Monitor) maxMinutes() int {
	if m.MaxMinutes <= 0 {
		return defaultMaxMinutes
	}
	return m.MaxMinutes
}

func (m *Monitor) maxSourcesPerBin() int {
	if m.MaxSourcesPerBin <= 0 {
		return defaultMaxSourcesPerBin
	}
	return m.MaxSourcesPerBin
}

// Add consumes one record and returns an alert if its victim just
// crossed the thresholds (nil otherwise).
func (m *Monitor) Add(r *flow.Record) *Alert {
	var t slabTally
	al := m.addRecord(r, nil, 0, &t)
	m.count(&t)
	return al
}

// addRecord is the row body Add and a shard's row batches share: it
// tallies r into t and, when r passes the optimistic filter,
// aggregates it under the clock marks[i] — r's own start when the
// batch carries no stamp for it.
func (m *Monitor) addRecord(r *flow.Record, marks []int64, i int, t *slabTally) *Alert {
	t.records++
	t.detect(m.detection(r.Protocol, r.SrcPort, r.Packets, r.Bytes))
	if !isAmplifiedNTP(r, m.cfg) {
		return nil
	}
	t.matched++
	start := r.Start.Unix()
	mark := start
	if i < len(marks) {
		mark = marks[i]
	}
	return m.addMatched(r.Dst.As16(), r.Src.As16(), start, r.ScaledBytes(), mark)
}

// AdvanceTo moves the eviction clock to the minute containing unixSec
// without consuming a record (no-op when the clock is already there or
// beyond). The sharded monitor uses it to replay the global stream
// clock on shards that only saw a subset of records.
func (m *Monitor) AdvanceTo(unixSec int64) {
	if wm := floorMinute(unixSec); wm > m.latest {
		m.latest = wm
		m.evict()
	}
}

// addMatched takes one record that passed the optimistic filter —
// its victim and source in 16-byte form, its start, its scaled bytes —
// with an explicit clock: watermarkUnix is the maximum start time
// (unix seconds) over every filter-matched record the whole stream has
// produced so far. In serial use the record is its own watermark
// (Add); a sharded run stamps the global prefix-max instead, which
// makes each shard advance, evict, and prune at exactly the points the
// serial monitor would have. Then it aggregates the record into its
// bin and checks the thresholds.
//
//bsvet:hotpath
func (m *Monitor) addMatched(dst, src [16]byte, startSec int64, scaledBytes uint64, watermarkUnix int64) *Alert {
	minute := floorMinute(startSec)
	m.AdvanceTo(watermarkUnix)
	// The attack is opened (or extended) after the clock advance so
	// eviction of a previous attack is observed first — the same order
	// the serial and sharded monitors both see.
	key := minuteKey{dst: dst, minute: minute}
	w := dst[15] & (memoWays - 1)
	agg := m.memoAggs[w]
	if agg == nil || m.memoKeys[w] != key {
		agg = m.minutes[key]
	}
	var st *attackState
	if agg != nil {
		// The bin's attack already reaches its minute: nothing to
		// extend.
		if st = agg.attack; st == nil {
			st = m.openAttack(dst, minute)
			agg.attack = st
		}
	} else {
		st = m.openAttack(dst, minute)
		if agg = m.newBin(key, st); agg == nil {
			return nil
		}
	}
	m.memoKeys[w], m.memoAggs[w] = key, agg
	agg.bytes += scaledBytes
	if !agg.sources.AddAs16(src) {
		m.m.overflows.Inc()
	}

	rate := float64(agg.bytes) * 8 / 60
	n := agg.sources.Len()
	if m.TrackAttackLog {
		if rate > st.peakBps {
			st.peakBps = rate
		}
		if n > st.maxSources {
			st.maxSources = n
		}
	}
	if rate <= m.cfg.MinRateBps || n <= m.cfg.MinSources {
		return nil
	}
	return m.onCrossing(st, agg, dst, minute, rate)
}

// newBin files the bin for key, whose record opened or extended st,
// making room at MaxMinutes by eviction; nil when the table is full of
// in-retention bins and the bin is refused.
//
//bsvet:hotpath
func (m *Monitor) newBin(key minuteKey, st *attackState) *monAgg {
	if len(m.minutes) >= m.maxMinutes() {
		m.evict()
		if m.attacks[key.dst] != st {
			// The eviction closed the attack this record opened (a
			// late one, behind the horizon). The record still counts
			// under it; the bin's next record opens a new one.
			st = nil
		}
	}
	if len(m.minutes) >= m.maxMinutes() {
		// Table full of in-retention bins: refuse the new bin but
		// account for it. Established victims keep aggregating.
		m.m.rejected.Inc()
		return nil
	}
	agg := &monAgg{sources: *flow.NewSourceSet(m.maxSourcesPerBin()), attack: st}
	m.minutes[key] = agg
	m.binsAt.add(key.minute, key)
	m.m.occupancy.Add(1)
	return agg
}

// onCrossing handles a record that left its bin over both thresholds:
// the bin's first crossing is an event, and the victim's first alert —
// or its first after ReAlertAfter — is returned. Off the per-record
// path: events and alerts allocate.
func (m *Monitor) onCrossing(st *attackState, agg *monAgg, dst [16]byte, minute int64, rate float64) *Alert {
	st.crossed = true
	if !agg.crossed {
		agg.crossed = true
		if ev := m.Events; ev != nil {
			ev.Emit("classify", "classify_threshold_crossed", st.id,
				eventlog.A("victim", victimAddr(dst).String()),
				eventlog.AInt("minute_unix", minute),
				eventlog.AFloat("gbps", rate/1e9),
				eventlog.AInt("sources", int64(agg.sources.Len())))
		}
	}
	if last, ok := m.alerted[dst]; ok && minute-last < ceilSeconds(m.ReAlertAfter) {
		return nil
	}
	m.alerted[dst] = minute
	m.alertedAt.add(minute, dst)
	st.alerts++
	m.m.alerts.Inc()
	victim := victimAddr(dst)
	if ev := m.Events; ev != nil {
		ev.Emit("classify", "classify_alert_raised", st.id,
			eventlog.A("victim", victim.String()),
			eventlog.AFloat("gbps", rate/1e9),
			eventlog.AInt("sources", int64(agg.sources.Len())),
			eventlog.AUint("bytes", agg.bytes))
	}
	return &Alert{
		ID:      st.id,
		Victim:  victim,
		Minute:  time.Unix(minute, 0).UTC(),
		Gbps:    rate / 1e9,
		Sources: agg.sources.Len(),
	}
}

// victimAddr is the address a victim key stands for.
func victimAddr(b [16]byte) netip.Addr { return netip.AddrFrom16(b).Unmap() }

// evict drops minute state beyond the retention horizon and stale alert
// markers, visiting only the minutes that expired.
func (m *Monitor) evict() {
	if m.latest == noClock {
		return
	}
	horizon := m.latest - ceilSeconds(m.Retention)
	// Every live bin is filed exactly once, under its own minute, so
	// every expired key is a live bin.
	m.expiredBins = m.binsAt.expire(m.expiredBins[:0], horizon)
	if dropped := len(m.expiredBins); dropped > 0 {
		for _, key := range m.expiredBins {
			delete(m.minutes, key)
		}
		m.memoKeys, m.memoAggs = [memoWays]minuteKey{}, [memoWays]*monAgg{}
		m.m.evicted.Add(uint64(dropped))
		// Maintained additively (not Set(len)) so shards sharing one
		// metrics struct sum to the total table occupancy.
		m.m.occupancy.Add(-float64(dropped))
	}
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

// Stats returns a snapshot of the monitor's accounting — a view over
// the same telemetry counters RegisterTelemetry exposes.
func (m *Monitor) Stats() MonitorStats {
	return MonitorStats{
		Records:         m.m.records.Value(),
		Matched:         m.m.matched.Value(),
		Alerts:          m.m.alerts.Value(),
		RejectedRecords: m.m.rejected.Value(),
		EvictedBins:     m.m.evicted.Value(),
		SourceOverflows: m.m.overflows.Value(),
	}
}

// Health condenses the monitor's state into an operational verdict.
//
//bsvet:allow deadcode oracle: TestMonitorRunFrozen freezes the serial monitor's health
func (m *Monitor) Health() MonitorHealth {
	return MonitorHealth{
		ActiveMinutes:   len(m.minutes),
		ActiveAlerts:    len(m.alerted),
		Saturated:       len(m.minutes) >= m.maxMinutes(),
		RejectedRecords: m.m.rejected.Value(),
		SourceOverflows: m.m.overflows.Value(),
	}
}

// ActiveMinutes reports the tracked minute-bin count (for memory
// monitoring).
//
//bsvet:allow deadcode oracle: TestMonitorEviction and TestShardedMonitorMatchesSerial read the bin table size
func (m *Monitor) ActiveMinutes() int { return len(m.minutes) }
