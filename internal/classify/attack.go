package classify

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"net/netip"
	"slices"

	"booterscope/internal/telemetry/eventlog"
)

// attackID derives the stable identifier of one attack: the FNV-1a
// hash of the victim address and the unix minute of its first
// suspicious bin. The ID is a pure function of stream content, so it
// is identical across shard counts (victim-hash routing puts each
// victim's records on one shard, and the watermark discipline makes
// that shard's eviction clock — and therefore the "first bin while no
// attack was open" decision — match the serial monitor exactly) and
// across a checkpoint restart (open attacks are persisted in the
// monitor snapshot, so a restored daemon keeps the same IDs).
func attackID(victim [16]byte, firstMinuteUnix int64) uint64 {
	h := fnv.New64a()
	h.Write(victim[:])
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(firstMinuteUnix))
	h.Write(buf[:])
	id := h.Sum64()
	if id == 0 {
		// 0 means "no attack" in Event.AttackID; remap the one
		// colliding hash value.
		id = 1
	}
	return id
}

// attackState tracks one victim's open attack for lifecycle tracing.
// It is bookkeeping for the flight recorder and (with TrackAttackLog)
// the attack log only: alert decisions are made from the minute bins
// and re-alert markers exactly as before, so the attack map changes no
// classification result.
type attackState struct {
	id uint64
	// openedUnix is the unix minute of the first suspicious bin.
	openedUnix int64
	// lastUnix is the newest bin minute seen; when it drops past the
	// retention horizon every bin of the attack is gone and the attack
	// is evicted.
	lastUnix int64
	// Summary fields, maintained only under TrackAttackLog. They are
	// intentionally not checkpointed (see snapshot.go): a restored
	// daemon re-derives lifecycle state from replay, and the attack log
	// is an offline-correlation feature, not daemon state.
	peakBps    float64
	maxSources int
	crossed    bool
	alerts     int
}

// AttackSummary condenses one attack's observed lifecycle at a single
// vantage: its time interval in minute bins, its peak minute rate, and
// whether it ever crossed the conservative alert thresholds there. The
// federation layer joins summaries from different vantage archives by
// (victim, time-overlap) to surface cross-vantage disagreement —
// "seen at the IXP, missing at the tier-1 ISP".
type AttackSummary struct {
	// ID is the stable lifecycle identifier (attackID of victim and
	// first minute). Vantages that first see the attack in different
	// minutes derive different IDs; joins go by victim and interval.
	ID     uint64
	Victim netip.Addr
	// FirstMinuteUnix and LastMinuteUnix bound the suspicious bins
	// observed (inclusive, unix seconds of the minute).
	FirstMinuteUnix int64
	LastMinuteUnix  int64
	// PeakGbps is the highest single-minute rate observed.
	PeakGbps float64
	// MaxSources is the largest per-minute distinct-source count.
	MaxSources int
	// Crossed reports whether any minute passed the conservative
	// thresholds (rate AND sources) — the "seen here" criterion.
	Crossed bool
	// Alerts counts alerts raised for this attack.
	Alerts int
}

// summarize freezes one attack's state into its log entry.
func summarize(victim netip.Addr, st *attackState) AttackSummary {
	return AttackSummary{
		ID:              st.id,
		Victim:          victim,
		FirstMinuteUnix: st.openedUnix,
		LastMinuteUnix:  st.lastUnix,
		PeakGbps:        st.peakBps / 1e9,
		MaxSources:      st.maxSources,
		Crossed:         st.crossed,
		Alerts:          st.alerts,
	}
}

// openAttack returns the victim's attack state, creating it — and
// emitting the attack-opened event — at the first suspicious bin
// while no attack is open.
func (m *Monitor) openAttack(victim [16]byte, minuteUnix int64) *attackState {
	st, ok := m.attacks[victim]
	if !ok {
		st = &attackState{
			id:         attackID(victim, minuteUnix),
			openedUnix: minuteUnix,
			lastUnix:   minuteUnix,
		}
		m.attacks[victim] = st
		m.attacksAt.add(minuteUnix, victim)
		if ev := m.Events; ev != nil {
			ev.Emit("classify", "classify_attack_opened", st.id,
				eventlog.A("victim", victimAddr(victim).String()),
				eventlog.AInt("minute_unix", minuteUnix))
		}
	}
	if minuteUnix > st.lastUnix {
		st.lastUnix = minuteUnix
		m.attacksAt.add(minuteUnix, victim)
	}
	return st
}

// evictAttacks closes attacks whose newest bin fell past the horizon.
// Every open attack is filed under its lastUnix, so the expired minutes
// of the index name them all — along with attacks that have grown
// since, which stay. With a recorder attached, victims are visited in
// address order so the event stream does not leak the index's filing
// order; nothing else depends on the order (AttackLog sorts).
func (m *Monitor) evictAttacks(horizonUnix int64) {
	victims := m.attacksAt.expire(m.expired[:0], horizonUnix)
	m.expired = victims
	if len(victims) == 0 {
		return
	}
	ev := m.Events
	if ev != nil {
		sortVictims(victims)
	}
	for _, v := range victims {
		st, ok := m.attacks[v]
		if !ok || st.lastUnix >= horizonUnix {
			continue // filed under several expired minutes and closed already, or still live
		}
		delete(m.attacks, v)
		if m.TrackAttackLog {
			m.attackLog = append(m.attackLog, summarize(victimAddr(v), st))
		}
		if ev != nil {
			ev.Emit("classify", "classify_attack_evicted", st.id,
				eventlog.A("victim", victimAddr(v).String()),
				eventlog.AInt("opened_minute_unix", st.openedUnix),
				eventlog.AInt("last_minute_unix", st.lastUnix))
		}
	}
}

// AttackLog returns a summary of every attack the monitor observed —
// evicted attacks plus those still open — sorted by (first minute,
// victim). Empty unless TrackAttackLog was set before the first Add.
// Victim-hash routing gives each victim's attacks to exactly one
// shard, so a sharded run's per-shard logs concatenate and re-sort
// into the identical list a serial monitor produces
// (TestShardedAttackLogMatchesSerial holds them to it).
func (m *Monitor) AttackLog() []AttackSummary {
	if !m.TrackAttackLog {
		return nil
	}
	out := append([]AttackSummary(nil), m.attackLog...)
	for v, st := range m.attacks {
		out = append(out, summarize(victimAddr(v), st))
	}
	sortAttackSummaries(out)
	return out
}

// sortAttackSummaries orders summaries by (first minute, victim) — a
// total order: one victim cannot have two attacks opening in the same
// minute.
func sortAttackSummaries(s []AttackSummary) {
	// Stable: one victim can log several summaries with the same first
	// minute (evicted then re-opened by late records); their log order
	// must survive the sort.
	slices.SortStableFunc(s, func(a, b AttackSummary) int {
		return cmp.Or(cmp.Compare(a.FirstMinuteUnix, b.FirstMinuteUnix), a.Victim.Compare(b.Victim))
	})
}

// sortVictims orders victim keys as netip.Addr.Compare orders the
// addresses they stand for, so eviction events are independent of
// filing order.
func sortVictims(vs [][16]byte) {
	slices.SortFunc(vs, func(a, b [16]byte) int { return victimAddr(a).Compare(victimAddr(b)) })
}
