package classify

import (
	"sort"
	"time"

	"booterscope/internal/flow"
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
