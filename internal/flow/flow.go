// Package flow defines the flow record model shared by every vantage
// point in booterscope: a NetFlow/IPFIX-style 5-tuple record with packet
// and byte counters, plus the aggregation primitives the study's
// analyses are built on: a flow table keyed on the 5-tuple and a
// bounded set of source addresses.
package flow

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/bits"
	"net/netip"
	"sort"
	"time"

	"booterscope/internal/packet"
)

// Direction distinguishes ingress from egress traffic at a vantage point.
type Direction uint8

// Traffic directions.
const (
	Ingress Direction = iota
	Egress
)

// String returns the direction name.
func (d Direction) String() string {
	if d == Egress {
		return "egress"
	}
	return "ingress"
}

// Key is the flow 5-tuple.
type Key struct {
	Src      netip.Addr
	Dst      netip.Addr
	SrcPort  uint16
	DstPort  uint16
	Protocol uint8
}

// String formats the key as "proto src:port -> dst:port".
func (k Key) String() string {
	return fmt.Sprintf("%d %s:%d -> %s:%d", k.Protocol, k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// Record is one unidirectional flow record as exported by a router or IXP
// platform.
type Record struct {
	Key
	// Packets and Bytes are the measured (possibly sampled) counters.
	Packets uint64
	Bytes   uint64
	// Start and End delimit the flow's activity.
	Start time.Time
	End   time.Time
	// SrcAS and DstAS are the peer AS numbers as seen in BGP.
	SrcAS uint32
	DstAS uint32
	// Direction is the flow's direction relative to the vantage point.
	Direction Direction
	// SamplingRate is the 1-in-N rate the record was sampled at
	// (1 = unsampled). Scale-up multiplies counters by this factor.
	SamplingRate uint32
}

// ScaledPackets returns the packet count corrected for sampling.
func (r *Record) ScaledPackets() uint64 {
	if r.SamplingRate > 1 {
		return r.Packets * uint64(r.SamplingRate)
	}
	return r.Packets
}

// ScaledBytes returns the byte count corrected for sampling.
func (r *Record) ScaledBytes() uint64 {
	if r.SamplingRate > 1 {
		return r.Bytes * uint64(r.SamplingRate)
	}
	return r.Bytes
}

// AvgPacketSize returns the mean packet size in bytes, or 0 for an empty
// record. Classification uses this as the per-flow packet size estimate.
func (r *Record) AvgPacketSize() float64 {
	if r.Packets == 0 {
		return 0
	}
	return float64(r.Bytes) / float64(r.Packets)
}

// FromPacket derives a single-packet flow record from a decoded packet.
// The byte counter uses the IP total length (on-the-wire size).
//
//bsvet:allow deadcode oracle: TestSelfAttackCaptureReplay rebuilds flows from the observatory's pcap capture with it
func FromPacket(d *packet.Decoded, ts time.Time) Record {
	rec := Record{
		Key: Key{
			Src:      d.IPv4.Src,
			Dst:      d.IPv4.Dst,
			Protocol: d.IPv4.Protocol,
		},
		Packets:      1,
		Bytes:        uint64(d.TotalLen),
		Start:        ts,
		End:          ts,
		SamplingRate: 1,
	}
	switch {
	case d.UDP != nil:
		rec.SrcPort, rec.DstPort = d.UDP.SrcPort, d.UDP.DstPort
	case d.TCP != nil:
		rec.SrcPort, rec.DstPort = d.TCP.SrcPort, d.TCP.DstPort
	}
	return rec
}

// table aggregates packets into flow records keyed on the 5-tuple, the
// way a router's flow cache does. The zero value is not usable; construct
// with NewTable.
type table struct {
	flows map[Key]*Record
	// ActiveTimeout flushes long-lived flows; IdleTimeout flushes quiet
	// ones. Both default to the common router settings when zero.
	ActiveTimeout time.Duration
	IdleTimeout   time.Duration
}

// Default router flow-cache timeouts.
const (
	defaultActiveTimeout = 60 * time.Second
	defaultIdleTimeout   = 15 * time.Second
)

// NewTable returns an empty flow table with default timeouts.
//
//bsvet:allow deadcode oracle: TestSelfAttackCaptureReplay rebuilds flows from the observatory's pcap capture with it
func NewTable() *table {
	return &table{
		flows:         make(map[Key]*Record),
		ActiveTimeout: defaultActiveTimeout,
		IdleTimeout:   defaultIdleTimeout,
	}
}

// Len reports the number of active flows.
func (t *table) Len() int { return len(t.flows) }

// Add merges one observation into the table. Expired flows keyed the same
// are flushed and returned before the new observation starts a fresh
// record.
func (t *table) Add(rec Record) *Record {
	metricObservations.Inc()
	var flushed *Record
	if cur, ok := t.flows[rec.Key]; ok {
		if rec.End.Sub(cur.Start) > t.ActiveTimeout || rec.Start.Sub(cur.End) > t.IdleTimeout {
			flushed = cur
			delete(t.flows, rec.Key)
			metricFlushes.Inc()
		} else {
			cur.Packets += rec.Packets
			cur.Bytes += rec.Bytes
			if rec.End.After(cur.End) {
				cur.End = rec.End
			}
			metricMerges.Inc()
			return nil
		}
	}
	clone := rec
	t.flows[rec.Key] = &clone
	return flushed
}

// Flush empties the table, returning all active records.
func (t *table) Flush() []Record {
	out := make([]Record, 0, len(t.flows))
	for _, r := range t.flows {
		out = append(out, *r)
	}
	t.flows = make(map[Key]*Record)
	return out
}

// SourceSet is a bounded set of source addresses with overflow
// accounting: once Cap distinct addresses are tracked, further new
// addresses are rejected and counted rather than grown. Streaming
// aggregators use it so adversarial source churn (randomized spoofed
// sources) degrades counting gracefully instead of exhausting memory.
//
// Members are netip.Addr values compared by address and family, so an
// IPv4 address and its IPv4-mapped IPv6 twin are two members, and the
// invalid address is one more (zones are not kept: a flow record's
// addresses never carry one). The storage holds no pointer: each
// member is its 16-byte form plus a one-byte form tag (IPv4, IPv6,
// invalid). The first inlineSources members live in the set itself and
// are searched linearly; a set that outgrows them moves into one flat
// open-addressed table (linear probing, at most 3/4 full, doubled as
// it fills). A monitor bin is one of these per (victim, minute): most
// hold a handful of amplifiers and never allocate, and a spilled one
// is a single slice the garbage collector does not scan.
type SourceSet struct {
	n        int                       // members, inline or in the table
	inline   [inlineSources]sourceSlot // the members, while set is nil
	set      []sourceSlot              // nil until the inline array is full
	cap      int
	overflow uint64
}

// inlineSources is how many addresses a SourceSet holds before it
// allocates a table — a dozen, as classify's per-minute attack counter
// keeps inline.
const inlineSources = 12

// firstTableSlots sizes the table a set spills into: room for twice
// the inline array at 3/4 load.
const firstTableSlots = 32

// sourceSlot is one member: As16 of the address and its form.
// formEmpty marks a free table slot.
type sourceSlot struct {
	addr [16]byte
	form uint8
}

// The form tags of a sourceSlot.
const (
	formEmpty uint8 = iota
	formInvalid
	form4
	form6
)

// slotOf is a's member slot.
func slotOf(a netip.Addr) sourceSlot {
	switch {
	case !a.IsValid():
		return sourceSlot{form: formInvalid}
	case a.Is4():
		return sourceSlot{addr: a.As16(), form: form4}
	}
	return sourceSlot{addr: a.As16(), form: form6}
}

// canonicalSlot is the slot of netip.AddrFrom16(b).Unmap(): IPv4 when
// b is IPv4-mapped, IPv6 otherwise.
func canonicalSlot(b [16]byte) sourceSlot {
	if binary.BigEndian.Uint64(b[:8]) == 0 && binary.BigEndian.Uint32(b[8:12]) == 0xffff {
		return sourceSlot{addr: b, form: form4}
	}
	return sourceSlot{addr: b, form: form6}
}

// sourceSeed keys the table hash per process, so sources cannot be
// chosen to collide. Nothing the set reports depends on where a member
// sits: Snapshot sorts.
var sourceSeed = maphash.Bytes(maphash.MakeSeed(), []byte("flow.SourceSet"))

// hash mixes the slot's address (a 64×64→128-bit multiply folded to 64
// bits). Twins share a hash; the form tag tells them apart on compare.
func (sl *sourceSlot) hash() uint64 {
	hi, lo := bits.Mul64(binary.LittleEndian.Uint64(sl.addr[:8])^sourceSeed,
		binary.LittleEndian.Uint64(sl.addr[8:])^(sourceSeed*0x9e3779b97f4a7c15))
	return hi ^ lo
}

// NewSourceSet returns an empty set holding at most cap addresses
// (cap <= 0 means unbounded).
func NewSourceSet(cap int) *SourceSet {
	return &SourceSet{cap: cap}
}

// Add tracks a. It reports false when a is new but the set is at
// capacity; the rejection is recorded in Overflow.
func (s *SourceSet) Add(a netip.Addr) bool { return s.add(slotOf(a)) }

// AddAs16 is Add of netip.AddrFrom16(b).Unmap() — the canonical form
// flowstore replay and RestoreSourceSet give an address — without
// building the netip.Addr.
func (s *SourceSet) AddAs16(b [16]byte) bool { return s.add(canonicalSlot(b)) }

func (s *SourceSet) add(sl sourceSlot) bool {
	at, ok := s.lookup(sl)
	if ok {
		return true
	}
	if s.cap > 0 && s.n >= s.cap {
		s.overflow++
		metricSourceOverflows.Inc()
		return false
	}
	s.insert(sl, at)
	return true
}

// lookup reports whether the set holds sl and, if it does not, where
// sl would go: the next inline index, or the free table slot its probe
// ended on.
func (s *SourceSet) lookup(sl sourceSlot) (at int, ok bool) {
	if s.set == nil {
		for i := range s.inline[:s.n] {
			if s.inline[i] == sl {
				return i, true
			}
		}
		return s.n, false
	}
	mask := len(s.set) - 1
	for i := int(sl.hash()) & mask; ; i = (i + 1) & mask {
		switch {
		case s.set[i].form == formEmpty:
			return i, false
		case s.set[i] == sl:
			return i, true
		}
	}
}

// insert adds sl, which the set does not hold, at the position lookup
// found for it — unless the inline array is full or the table would
// pass 3/4 load, when the set grows first.
func (s *SourceSet) insert(sl sourceSlot, at int) {
	switch {
	case s.set == nil && s.n < inlineSources:
		s.inline[at] = sl
	case s.set == nil || 4*(s.n+1) > 3*len(s.set):
		s.grow()
		at, _ = s.lookup(sl)
		fallthrough
	default:
		s.set[at] = sl
	}
	s.n++
}

// grow moves the members into a fresh table: the first one when the
// inline array is full, else one twice the current size.
func (s *SourceSet) grow() {
	old := s.set
	if old == nil {
		old = s.inline[:s.n]
		s.set = make([]sourceSlot, firstTableSlots)
	} else {
		s.set = make([]sourceSlot, 2*len(old))
	}
	for _, sl := range old {
		if sl.form != formEmpty {
			at, _ := s.lookup(sl)
			s.set[at] = sl
		}
	}
}

// Len reports the number of tracked addresses.
func (s *SourceSet) Len() int { return s.n }

// Overflow reports how many Add calls were rejected at capacity.
func (s *SourceSet) Overflow() uint64 { return s.overflow }

// Snapshot returns the tracked addresses as sorted 16-byte forms — the
// deterministic serialization checkpointing needs. Addresses are
// normalized through As16, matching the flowstore codec convention.
func (s *SourceSet) Snapshot() [][16]byte {
	out := make([][16]byte, 0, s.n)
	if s.set == nil {
		for _, sl := range s.inline[:s.n] {
			out = append(out, sl.addr)
		}
	}
	for _, sl := range s.set {
		if sl.form != formEmpty {
			out = append(out, sl.addr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

// RestoreSourceSet rebuilds a set from a Snapshot without touching the
// overflow telemetry counter (the rejections were already counted by
// the process that produced the snapshot). Addresses are restored via
// Unmap, the same normalization the flowstore replay path applies, and
// all of them, whatever cap says: a snapshot is not re-judged.
func RestoreSourceSet(cap int, addrs [][16]byte, overflow uint64) *SourceSet {
	s := NewSourceSet(cap)
	for _, b := range addrs {
		sl := canonicalSlot(b)
		if at, ok := s.lookup(sl); !ok {
			s.insert(sl, at)
		}
	}
	s.overflow = overflow
	return s
}
