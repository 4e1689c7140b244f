package service

import (
	"bytes"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"

	"booterscope/internal/bgp"
	"booterscope/internal/classify"
	"booterscope/internal/flow"
	"booterscope/internal/telemetry/eventlog"
)

// MitigationOptions closes the detect→mitigate loop: on sustained
// detection the daemon emits a bgp FlowSpec discard rule scoped to the
// attack traffic (UDP from the NTP port, amplified packet sizes,
// toward the victim /32) and withdraws every active rule on drain —
// the paper's handover/mitigation analysis as a running control loop.
type MitigationOptions struct {
	// Enabled turns the loop on; off, alerts only log.
	Enabled bool
	// SustainAlerts is how many alerts a victim must accumulate before
	// a rule is announced (0 selects 2: one alert is detection, a
	// re-alert is sustained attack).
	SustainAlerts int
	// MinPacketLen is the rule's packet-length floor (0 selects the
	// classifier's optimistic size threshold).
	MinPacketLen int
	// Announce and Withdraw, when set, receive each rule as it changes
	// state (the collector binary logs them; a deployment would speak
	// BGP). Called with the mitigator's lock held — keep them fast.
	Announce func(bgp.FlowSpecRule)
	Withdraw func(bgp.FlowSpecRule)
}

func (o MitigationOptions) withDefaults() MitigationOptions {
	if o.SustainAlerts <= 0 {
		o.SustainAlerts = 2
	}
	if o.MinPacketLen <= 0 {
		o.MinPacketLen = int(classify.OptimisticSizeThreshold)
	}
	return o
}

// suppressedTotals is one victim's cumulative traffic observed while
// its rule was active — the volume a deployed filter would have
// discarded upstream.
type suppressedTotals struct {
	records uint64
	bytes   uint64
}

// mitigator tracks per-victim alert counts and the active FlowSpec
// rules. Alerts arrive concurrently from shard workers.
type mitigator struct {
	mu   sync.Mutex
	opts MitigationOptions
	//bsvet:guards mu
	counts map[netip.Addr]int
	//bsvet:guards mu
	rules map[netip.Addr]bgp.FlowSpecRule
	// ids joins each victim to its attack's lifecycle ID so announce,
	// suppression, and withdraw events link into the same timeline the
	// classifier opened.
	//bsvet:guards mu
	ids map[netip.Addr]uint64
	//bsvet:guards mu
	suppressed map[netip.Addr]*suppressedTotals
	// active mirrors len(rules) so the ingest hot path can skip
	// suppression accounting without taking the lock.
	active atomic.Int32
	m      *metrics
	events func() *eventlog.Log
}

func newMitigator(opts MitigationOptions, m *metrics, events func() *eventlog.Log) *mitigator {
	return &mitigator{
		opts:       opts.withDefaults(),
		counts:     make(map[netip.Addr]int),
		rules:      make(map[netip.Addr]bgp.FlowSpecRule),
		ids:        make(map[netip.Addr]uint64),
		suppressed: make(map[netip.Addr]*suppressedTotals),
		m:          m,
		events:     events,
	}
}

// onAlert feeds one detection into the loop, announcing a rule once
// the victim's alert count reaches SustainAlerts.
func (mt *mitigator) onAlert(a classify.Alert) {
	if !mt.opts.Enabled {
		return
	}
	mt.mu.Lock()
	defer mt.mu.Unlock()
	v := a.Victim.Unmap()
	if a.ID != 0 {
		mt.ids[v] = a.ID
	}
	mt.counts[v]++
	if mt.counts[v] < mt.opts.SustainAlerts {
		return
	}
	if _, active := mt.rules[v]; active {
		return
	}
	if !v.Is4() {
		// FlowSpec NLRI encoding here covers IPv4 only; skipping is
		// accounted, never silent.
		mt.m.mitigationSkipped.Inc()
		return
	}
	rule := bgp.FlowSpecRule{
		Dst:          netip.PrefixFrom(v, 32),
		Protocol:     17, // UDP
		SrcPort:      classify.NTPPort,
		MinPacketLen: mt.opts.MinPacketLen,
	}
	if _, err := rule.Encode(); err != nil {
		mt.m.mitigationSkipped.Inc()
		return
	}
	mt.rules[v] = rule
	mt.active.Add(1)
	mt.m.mitigationAnnounced.Inc()
	mt.m.mitigationActive.Add(1)
	mt.events().Emit("service", "service_flowspec_announced", mt.ids[v],
		eventlog.A("victim", v.String()),
		eventlog.AInt("min_packet_len", int64(rule.MinPacketLen)))
	if mt.opts.Announce != nil {
		mt.opts.Announce(rule)
	}
}

// observeSuppressed accounts batch traffic matching an active rule as
// suppressed attack volume and emits one cumulative suppression event
// per touched victim. Called on the ingest path; with no active rules
// it costs a single atomic load.
func (mt *mitigator) observeSuppressed(recs []flow.Record) {
	if mt.active.Load() == 0 {
		return
	}
	mt.mu.Lock()
	defer mt.mu.Unlock()
	var touched []netip.Addr
	for i := range recs {
		r := &recs[i]
		v := r.Dst.Unmap()
		rule, ok := mt.rules[v]
		if !ok {
			continue
		}
		if uint8(r.Protocol) != rule.Protocol || r.SrcPort != rule.SrcPort ||
			r.AvgPacketSize() < float64(rule.MinPacketLen) {
			continue
		}
		t := mt.suppressed[v]
		if t == nil {
			t = &suppressedTotals{}
			mt.suppressed[v] = t
		}
		if !containsAddr(touched, v) {
			touched = append(touched, v)
		}
		t.records++
		t.bytes += r.ScaledBytes()
		mt.m.suppressedRecords.Inc()
		mt.m.suppressedBytes.Add(r.ScaledBytes())
	}
	sort.Slice(touched, func(i, j int) bool {
		a, b := touched[i].As16(), touched[j].As16()
		return bytes.Compare(a[:], b[:]) < 0
	})
	for _, v := range touched {
		t := mt.suppressed[v]
		// Cumulative totals: timeline reconstruction takes the latest
		// suppression event per attack, so ring overwrites lose nothing.
		mt.events().Emit("service", "service_suppression_observed", mt.ids[v],
			eventlog.A("victim", v.String()),
			eventlog.AUint("records", t.records),
			eventlog.AUint("bytes", t.bytes))
	}
}

func containsAddr(addrs []netip.Addr, v netip.Addr) bool {
	for _, a := range addrs {
		if a == v {
			return true
		}
	}
	return false
}

// sortedVictimsLocked returns the active-rule victims in byte order, so
// withdrawal and listing never leak map iteration order into output.
func (mt *mitigator) sortedVictimsLocked() []netip.Addr {
	out := make([]netip.Addr, 0, len(mt.rules))
	for v := range mt.rules {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].As16(), out[j].As16()
		return bytes.Compare(a[:], b[:]) < 0
	})
	return out
}

// activeRules lists the announced rules in deterministic victim order.
func (mt *mitigator) activeRules() []bgp.FlowSpecRule {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	victims := mt.sortedVictimsLocked()
	out := make([]bgp.FlowSpecRule, 0, len(victims))
	for _, v := range victims {
		out = append(out, mt.rules[v])
	}
	return out
}

// withdrawAll retracts every active rule (the drain path) and returns
// the withdrawn rules in deterministic victim order.
func (mt *mitigator) withdrawAll() []bgp.FlowSpecRule {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	victims := mt.sortedVictimsLocked()
	out := make([]bgp.FlowSpecRule, 0, len(victims))
	for _, v := range victims {
		rule := mt.rules[v]
		delete(mt.rules, v)
		mt.active.Add(-1)
		mt.m.mitigationWithdrawn.Inc()
		mt.m.mitigationActive.Add(-1)
		mt.events().Emit("service", "service_flowspec_withdrawn", mt.ids[v],
			eventlog.A("victim", v.String()))
		delete(mt.suppressed, v)
		if mt.opts.Withdraw != nil {
			mt.opts.Withdraw(rule)
		}
		out = append(out, rule)
	}
	return out
}
