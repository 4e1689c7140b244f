// Package classify implements the study's NTP amplification DDoS
// classification (Section 4): the optimistic packet-size filter derived
// from the self-attacks (amplified monlist responses are 486/490-byte
// packets, benign NTP is < 200 bytes) and the conservative victim filter
// (peak traffic > 1 Gbps AND > 10 distinct amplifiers in a one-minute
// bin) used to count systems under attack around the takedown.
package classify

import (
	"net/netip"
	"sort"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/packet"
)

// The study's filter constants.
const (
	// NTPPort is the UDP port of the NTP amplification vector.
	NTPPort = 123
	// OptimisticSizeThreshold separates benign NTP (< 200 bytes) from
	// amplification payloads.
	OptimisticSizeThreshold = 200.0
	// conservativeMinRateBps is filter rule (a): > 1 Gbps peak.
	conservativeMinRateBps = 1e9
	// conservativeMinSources is filter rule (b): > 10 amplifiers.
	conservativeMinSources = 10
)

// Config allows sweeping the thresholds (the ablation benches vary
// them); the zero value selects the paper's parameters.
type Config struct {
	SizeThreshold float64
	MinRateBps    float64
	MinSources    int
}

// withDefaults fills zero fields with the paper's values.
func (c Config) withDefaults() Config {
	if c.SizeThreshold == 0 {
		c.SizeThreshold = OptimisticSizeThreshold
	}
	if c.MinRateBps == 0 {
		c.MinRateBps = conservativeMinRateBps
	}
	if c.MinSources == 0 {
		c.MinSources = conservativeMinSources
	}
	return c
}

// isNTPFlow reports whether a record is NTP traffic from a reflector to
// a destination (source port 123/UDP).
func isNTPFlow(r *flow.Record) bool {
	return r.Protocol == packet.IPProtoUDP && r.SrcPort == NTPPort
}

// isAmplifiedNTP applies the optimistic classification: NTP flows whose
// average packet size exceeds the threshold.
func isAmplifiedNTP(r *flow.Record, cfg Config) bool {
	cfg = cfg.withDefaults()
	return isNTPFlow(r) && r.AvgPacketSize() > cfg.SizeThreshold
}

// isNTPFlowCols is isNTPFlow evaluated against row i of a columnar
// slab — no record is materialized.
func isNTPFlowCols(c *flow.Columns, i int) bool {
	return c.Proto[i] == packet.IPProtoUDP && c.SrcPort[i] == NTPPort
}

// isAmplifiedNTPCols is isAmplifiedNTP over a columnar slab. It agrees
// with the row predicate for every record (the columnar golden tests
// pin this row-for-row).
func isAmplifiedNTPCols(c *flow.Columns, i int, cfg Config) bool {
	cfg = cfg.withDefaults()
	return isNTPFlowCols(c, i) && c.AvgPacketSize(i) > cfg.SizeThreshold
}

// Classifier accumulates flow records and produces the study's victim
// and attack statistics.
type Classifier struct {
	cfg Config
	// bins holds every (victim, minute)'s scaled bytes and distinct
	// sources, uncapped: Figure 2(c) plots exact peak counts.
	bins binTable[victimMinute]
	// sources is each victim's distinct sources over the whole window
	// (Victim.TotalSources); every bin points at its victim's set.
	sources map[[16]byte]*flow.SourceSet
}

// victimMinute is one of the Classifier's bins.
type victimMinute struct {
	bytes   uint64
	sources flow.SourceSet
	total   *flow.SourceSet
}

// New returns a classifier with the given configuration.
func New(cfg Config) *Classifier {
	return &Classifier{cfg: cfg.withDefaults(), bins: newBinTable[victimMinute](), sources: make(map[[16]byte]*flow.SourceSet)}
}

// Add feeds one record; non-NTP or non-amplified records are ignored.
// It reports whether the record was accepted.
func (c *Classifier) Add(r *flow.Record) bool {
	if !isAmplifiedNTP(r, c.cfg) {
		return false
	}
	c.add(r.Dst.As16(), r.Src.As16(), r.Start.Unix(), r.ScaledBytes())
	return true
}

// AddCols feeds row i of a columnar slab: the filter and the
// per-destination aggregation read the column vectors, so no record is
// materialized.
//
//bsvet:hotpath
func (c *Classifier) AddCols(cols *flow.Columns, i int) bool {
	// c.cfg is already defaulted (New), so apply the predicate directly.
	if !isNTPFlowCols(cols, i) || cols.AvgPacketSize(i) <= c.cfg.SizeThreshold {
		return false
	}
	c.add(cols.DstAs16(i), cols.SrcAs16(i), cols.StartSec[i], cols.ScaledBytes(i))
	return true
}

// add bins one accepted record. Addresses are taken in their 16-byte
// form, so an IPv4 address and its IPv4-mapped twin are one victim (or
// one source).
//
//bsvet:hotpath
func (c *Classifier) add(dst, src [16]byte, startSec int64, bytes uint64) {
	b, isNew := c.bins.get(dst, startSec)
	if isNew {
		if b.total = c.sources[dst]; b.total == nil {
			b.total = new(flow.SourceSet)
			c.sources[dst] = b.total
		}
	}
	b.bytes += bytes
	b.sources.AddAs16(src)
	b.total.AddAs16(src)
}

// Merge folds another classifier's accumulated state into c; other
// must not be used afterwards. A bin only other holds is adopted (and
// joins c's set of its victim, if c has one); a bin both hold is fused,
// bytes summed and sources united, so the result equals a serial pass
// over both inputs however they were split.
func (c *Classifier) Merge(other *Classifier) {
	if other == nil {
		return
	}
	if len(c.sources) == 0 {
		c.bins, c.sources = other.bins, other.sources
		return
	}
	for k, ob := range other.bins.index {
		b, ok := c.bins.index[k]
		if !ok {
			if total := c.sources[k.dst]; total != nil {
				ob.total = total
			}
			c.bins.index[k] = ob
			continue
		}
		b.bytes += ob.bytes
		for _, src := range ob.sources.Snapshot() {
			b.sources.AddAs16(src)
		}
	}
	for dst, ototal := range other.sources {
		total, ok := c.sources[dst]
		if !ok {
			c.sources[dst] = ototal
			continue
		}
		for _, src := range ototal.Snapshot() {
			total.AddAs16(src)
		}
	}
}

// Victim is one destination's attack profile (the axes of Figures 2(b)
// and 2(c)). MaxGbps and MaxSources are each the peak over the
// destination's minutes and may come from different minutes; Figure 5's
// AttackCounter and the Monitor instead judge a single victim-minute.
type Victim struct {
	Addr netip.Addr
	// MaxGbps is the peak one-minute traffic rate.
	MaxGbps float64
	// MaxSources is the peak one-minute amplifier count.
	MaxSources int
	// TotalSources is the distinct amplifier count over the whole
	// window.
	TotalSources int
	// Conservative marks victims passing both conservative filter rules,
	// each on its own peak: MaxGbps above the rate rule and MaxSources
	// above the sources rule. A victim with a 2.6 Gbps minute from one
	// amplifier and a 20-amplifier minute at a trickle is Conservative
	// here, although no minute of it is an attack for Figure 5 or the
	// Monitor.
	Conservative bool
}

// Victims returns per-destination summaries, sorted by descending peak
// rate.
func (c *Classifier) Victims() []Victim {
	out := make([]Victim, 0, len(c.sources))
	for dst, p := range c.peaks() {
		rate := minuteRate(p.bytes)
		out = append(out, Victim{
			Addr:         netip.AddrFrom16(dst).Unmap(),
			MaxGbps:      rate / 1e9,
			MaxSources:   p.sources,
			TotalSources: c.sources[dst].Len(),
			Conservative: c.cfg.passes(rate, p.sources),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MaxGbps != out[j].MaxGbps {
			return out[i].MaxGbps > out[j].MaxGbps
		}
		return out[i].Addr.Less(out[j].Addr)
	})
	return out
}

// peak is one victim's peak-minute bytes and peak-minute source count,
// each over all its minutes.
type peak struct {
	bytes   uint64
	sources int
}

// peaks takes one walk over the bins for every victim's peaks. The
// peak bytes give the peak rate: minuteRate keeps their order.
func (c *Classifier) peaks() map[[16]byte]peak {
	out := make(map[[16]byte]peak, len(c.sources))
	for k, b := range c.bins.index {
		p := out[k.dst]
		out[k.dst] = peak{bytes: max(p.bytes, b.bytes), sources: max(p.sources, b.sources.Len())}
	}
	return out
}

// FilterStats quantifies how much each conservative rule cuts from the
// optimistic victim set — the paper reports (a) only: −74 %, (b) only:
// −59 %, both: −78 %. Like Victim.Conservative, it applies the rate rule
// to a victim's peak-minute rate and the sources rule to its
// peak-minute source count, which may be different minutes.
type FilterStats struct {
	Optimistic   int
	RateOnly     int
	SourcesOnly  int
	Conservative int
}

// ReductionBoth is the fractional cut of applying both rules.
func (f FilterStats) ReductionBoth() float64 {
	if f.Optimistic == 0 {
		return 0
	}
	return 1 - float64(f.Conservative)/float64(f.Optimistic)
}

// ReductionRate is the cut of the rate rule alone.
func (f FilterStats) ReductionRate() float64 {
	if f.Optimistic == 0 {
		return 0
	}
	return 1 - float64(f.RateOnly)/float64(f.Optimistic)
}

// ReductionSources is the cut of the sources rule alone.
func (f FilterStats) ReductionSources() float64 {
	if f.Optimistic == 0 {
		return 0
	}
	return 1 - float64(f.SourcesOnly)/float64(f.Optimistic)
}

// FilterStats evaluates the conservative rules against the accumulated
// victims.
func (c *Classifier) FilterStats() FilterStats {
	var fs FilterStats
	for _, p := range c.peaks() {
		fs.Optimistic++
		rateOK := minuteRate(p.bytes) > c.cfg.MinRateBps
		srcOK := p.sources > c.cfg.MinSources
		if rateOK {
			fs.RateOnly++
		}
		if srcOK {
			fs.SourcesOnly++
		}
		if rateOK && srcOK {
			fs.Conservative++
		}
	}
	return fs
}

// AttackCounter counts systems under attack per hour using the
// conservative filter — the Figure 5 series. A destination is "under
// attack" in an hour if any of its minutes in that hour passes both
// rules.
type AttackCounter struct {
	cfg Config
	// limit is how many distinct sources a minute bin records:
	// MinSources+1, the fewest that prove "> MinSources" (see
	// minuteAgg.addSource).
	limit int
	// hours maps hour start -> set of victims. Keys are flat 16-byte
	// addresses rather than netip.Addr: the counter sits on the
	// per-record hot path, and pointer-free keys keep the maps out of
	// both the write barrier and the garbage collector's scan.
	hours map[int64]map[[16]byte]struct{}
	bins  binTable[minuteAgg]
}

// binTable finds the (victim, minute) bin of a record for the Figure 2
// classifier and the Figure 5 counter. Bins come from a chunked arena,
// one allocation per 256 bins instead of one each. A small
// direct-mapped memo indexed by the victim's low address byte finds
// recent bins without the map: attack records arrive in per-victim
// bursts, but a handful of victims interleave within any time slice,
// so one entry per low-byte slot keeps the hit rate high where a
// single-entry memo thrashes. The memo is purely a cache of index.
type binTable[B any] struct {
	index    map[minuteKey]*B
	arena    []B
	memoKeys [memoWays]minuteKey
	memoBins [memoWays]*B
}

// memoWays sizes a bin memo (a power of two).
const memoWays = 8

type minuteKey struct {
	dst    [16]byte
	minute int64
}

func newBinTable[B any]() binTable[B] {
	return binTable[B]{index: make(map[minuteKey]*B)}
}

// get returns the bin of victim dst for the minute holding startSec,
// and whether this call made it.
//
//bsvet:hotpath
func (t *binTable[B]) get(dst [16]byte, startSec int64) (bin *B, isNew bool) {
	key := minuteKey{dst: dst, minute: floorMinute(startSec)}
	w := dst[15] & (memoWays - 1)
	if bin = t.memoBins[w]; bin != nil && t.memoKeys[w] == key {
		return bin, false
	}
	bin, ok := t.index[key]
	if !ok {
		if len(t.arena) == 0 {
			t.arena = make([]B, 256)
		}
		bin = &t.arena[0]
		t.arena = t.arena[1:]
		t.index[key] = bin
	}
	t.memoKeys[w], t.memoBins[w] = key, bin
	return bin, !ok
}

// floorTo truncates unix seconds to a multiple of step seconds,
// rounding toward the past on both sides of 1970 —
// time.Time.Truncate, in integers. floorMinute and floorHour are the
// minute and hour rule of the classifier, the counter and the monitor.
func floorTo(unixSec, step int64) int64 {
	into := unixSec % step
	if into < 0 {
		into += step
	}
	return unixSec - into
}

func floorMinute(unixSec int64) int64 { return floorTo(unixSec, 60) }

func floorHour(unixSec int64) int64 { return floorTo(unixSec, 3600) }

// minuteRate is the mean rate in bits per second of a minute bin
// holding bytes.
func minuteRate(bytes uint64) float64 { return float64(bytes) * 8 / 60 }

// passes reports whether a minute at rate bits per second from sources
// distinct amplifiers passes both conservative rules.
func (c Config) passes(rate float64, sources int) bool {
	return rate > c.MinRateBps && sources > c.MinSources
}

// smallSources is the inline source-set capacity of a minute bin. It
// equals the recording cap at the paper's threshold (MinSources+1 =
// 11), so at the default config every bin's set lives in the array and
// no minute ever allocates a map. A smaller configured MinSources caps
// below it; only a larger one spills to a map, which then stops
// growing at its own cap.
const smallSources = conservativeMinSources + 1

type minuteAgg struct {
	bytes uint64
	// counted: this minute already crossed the thresholds and its
	// (hour, dst) entry is recorded — later records in the same minute
	// can skip the threshold math, since hour membership never retracts.
	counted bool
	// nsmall/small are the inline distinct-source set; sources is the
	// map it spills into (nil until then). Either holds at most the
	// counter's limit. Reads go through numSources.
	nsmall  uint8
	small   [smallSources][16]byte
	sources map[[16]byte]struct{}
}

// addSource records one distinct amplifier address, unless the bin
// already holds limit of them. The set is only ever asked whether it
// holds more than MinSources = limit-1, and a full set answers yes
// however many more distinct sources arrive, so the cap keeps every
// answer exact: the set holds min(distinct sources seen, limit) of
// them. A full set also skips the dedupe scan.
func (m *minuteAgg) addSource(src [16]byte, limit int) {
	if m.sources != nil {
		if len(m.sources) < limit {
			m.sources[src] = struct{}{}
		}
		return
	}
	n := int(m.nsmall)
	if n >= limit {
		return
	}
	for i := 0; i < n; i++ {
		if m.small[i] == src {
			return
		}
	}
	if n < smallSources {
		m.small[n] = src
		m.nsmall++
		return
	}
	m.sources = make(map[[16]byte]struct{}, 2*smallSources)
	for i := range m.small {
		m.sources[m.small[i]] = struct{}{}
	}
	m.sources[src] = struct{}{}
}

// numSources reports the recorded distinct amplifier count: exact
// below the counter's limit, the limit itself from there on.
func (m *minuteAgg) numSources() int {
	if m.sources != nil {
		return len(m.sources)
	}
	return int(m.nsmall)
}

// eachSource visits every recorded source (Merge's fusion walk).
func (m *minuteAgg) eachSource(f func([16]byte)) {
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
func (m *minuteAgg) dropSources() {
	m.nsmall = 0
	m.sources = nil
}

// NewAttackCounter returns an empty counter.
func NewAttackCounter(cfg Config) *AttackCounter {
	cfg = cfg.withDefaults()
	return &AttackCounter{
		cfg:   cfg,
		limit: cfg.MinSources + 1,
		hours: make(map[int64]map[[16]byte]struct{}),
		bins:  newBinTable[minuteAgg](),
	}
}

// Add feeds one record (applying the optimistic pre-filter) and updates
// the hour buckets.
func (a *AttackCounter) Add(r *flow.Record) {
	// a.cfg is already defaulted (NewAttackCounter), so apply the
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
//
//bsvet:hotpath
func (a *AttackCounter) AddCols(c *flow.Columns, i int) {
	if !isNTPFlowCols(c, i) || c.AvgPacketSize(i) <= a.cfg.SizeThreshold {
		return
	}
	a.add(c.DstAs16(i), c.SrcAs16(i), c.StartSec[i], c.ScaledBytes(i))
}

// add counts one record that passed the filter — the one aggregation
// body behind both entry points.
//
//bsvet:hotpath
func (a *AttackCounter) add(dst, src [16]byte, startSec int64, bytes uint64) {
	agg, _ := a.bins.get(dst, startSec)
	// A counted bin is frozen: its (hour, dst) entry is recorded and
	// hour membership never retracts, so further bytes/source tracking
	// cannot change any output — including Merge's re-check, which only
	// ever adds hour entries. Skipping the source-set insert here drops
	// the map traffic for the flood-heavy tail of every attack minute.
	if agg.counted {
		return
	}
	agg.bytes += bytes
	agg.addSource(src, a.limit)
	if a.cfg.passes(minuteRate(agg.bytes), agg.numSources()) {
		a.count(floorHour(startSec), dst)
		agg.counted = true
		// Frozen bins never read their source set again (Merge visits
		// an empty set); dropping it here releases the per-minute
		// spoofed-source sets — by far the counter's largest live
		// memory — as soon as they stop mattering.
		agg.dropSources()
	}
}

// count records dst as under attack in the hour starting at hour.
func (a *AttackCounter) count(hour int64, dst [16]byte) {
	set, ok := a.hours[hour]
	if !ok {
		set = make(map[[16]byte]struct{})
		a.hours[hour] = set
	}
	set[dst] = struct{}{}
}

// Merge folds another counter's state into a; other must not be used
// afterwards. Hour sets union; fused minute bins are re-checked
// against the thresholds, which is exact: an uncounted bin's bytes and
// source counts only grow under fusion, and a counted bin — frozen at
// the moment it crossed the thresholds — already contributed its
// (hour, dst) entry to the hour sets being unioned, so the re-check
// has nothing left to prove for it. Capped source sets fuse exactly
// too: if either side is full the union is, and if neither is, both
// are exact.
//
// A receiver that holds nothing adopts other's tables instead: other's
// hour sets already record every bin its own adds and merges saw
// cross the thresholds, so there is nothing to re-check.
func (a *AttackCounter) Merge(other *AttackCounter) {
	if other == nil {
		return
	}
	if len(a.bins.index) == 0 && len(a.hours) == 0 {
		a.bins, a.hours = other.bins, other.hours
		return
	}
	for k, oagg := range other.bins.index {
		agg, ok := a.bins.index[k]
		if !ok {
			a.bins.index[k] = oagg
			continue
		}
		if agg.counted {
			// Frozen fused bin: its hour entry is already recorded, so
			// the fused stats can stay frozen too.
			continue
		}
		agg.bytes += oagg.bytes
		oagg.eachSource(func(src [16]byte) { agg.addSource(src, a.limit) })
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
	for k := range other.bins.index {
		if agg := a.bins.index[k]; a.cfg.passes(minuteRate(agg.bytes), agg.numSources()) {
			a.count(floorHour(k.minute), k.dst)
		}
	}
}

// HourPoint is one hour's count of systems under attack.
type HourPoint struct {
	Hour  time.Time
	Count int
}

// Series returns the hourly counts in chronological order.
func (a *AttackCounter) Series() []HourPoint {
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
