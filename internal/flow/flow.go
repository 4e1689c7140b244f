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
	"slices"
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
// addresses never carry one). The storage holds no pointer the
// collector has to follow per member. IPv4 members, the sources of
// nearly every reflection attack, are kept as their four bytes: the
// first inlineSources live in the set itself and are searched
// linearly; a set that outgrows them moves into one flat
// open-addressed []uint32 (linear probing, at most 3/4 full, doubled
// as it fills), where 0 marks a free slot and a flag holds 0.0.0.0.
// IPv6 and invalid members are each their 16-byte form plus a one-byte
// form tag, in a second table of the same kind that is allocated only
// on the first such member. A monitor bin is one of these per (victim,
// minute): most hold a handful of amplifiers and never allocate, and a
// spilled one is a single slice the garbage collector does not scan.
type SourceSet struct {
	n        int                   // members of every form
	inline   [inlineSources]uint32 // the nonzero IPv4 members, in order, while v4 is nil
	v4       []uint32              // nil until the inline array is full
	wide     *wideSet              // nil until the first IPv6 or invalid member
	zero4    bool                  // 0.0.0.0 is a member
	cap      int
	overflow uint64
}

// inlineSources is how many IPv4 addresses a SourceSet holds before it
// allocates a table — a dozen, as classify's per-minute attack counter
// keeps inline.
const inlineSources = 12

// firstTableSlots sizes the IPv4 table a set spills into: room for
// twice the inline array at 3/4 load.
const firstTableSlots = 32

// firstWideSlots sizes the table of IPv6 and invalid members.
const firstWideSlots = 8

// wideSet holds a SourceSet's IPv6 and invalid members.
type wideSet struct {
	n     int
	slots []sourceSlot
}

// sourceSlot is one IPv6 or invalid member: As16 of the address and
// its form. formEmpty marks a free table slot.
type sourceSlot struct {
	addr [16]byte
	form uint8
}

// The form tags of a sourceSlot.
const (
	formEmpty uint8 = iota
	formInvalid
	form6
)

// sourceSeed keys the table hashes per process, so sources cannot be
// chosen to collide. Nothing the set reports depends on where a member
// sits: Snapshot sorts.
var sourceSeed = maphash.Bytes(maphash.MakeSeed(), []byte("flow.SourceSet"))

// hash4 mixes an IPv4 member (a 64×64→128-bit multiply folded to 64
// bits).
func hash4(v uint32) uint64 {
	hi, lo := bits.Mul64(uint64(v)^sourceSeed, 0x9e3779b97f4a7c15)
	return hi ^ lo
}

// hash mixes the slot's address the same way, over both halves.
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
func (s *SourceSet) Add(a netip.Addr) bool {
	switch {
	case a.Is4():
		b := a.As4()
		return s.add4(binary.BigEndian.Uint32(b[:]))
	case !a.IsValid():
		return s.addWide(sourceSlot{form: formInvalid})
	}
	return s.addWide(sourceSlot{addr: a.As16(), form: form6})
}

// AddAs16 is Add of netip.AddrFrom16(b).Unmap() — the canonical form
// flowstore replay and RestoreSourceSet give an address — without
// building the netip.Addr.
func (s *SourceSet) AddAs16(b [16]byte) bool {
	if binary.BigEndian.Uint64(b[:8]) == 0 && binary.BigEndian.Uint32(b[8:12]) == 0xffff {
		return s.add4(binary.BigEndian.Uint32(b[12:]))
	}
	return s.addWide(sourceSlot{addr: b, form: form6})
}

// admit counts a new member in, or, when the set is at capacity,
// records the rejection and reports false.
func (s *SourceSet) admit() bool {
	if s.cap > 0 && s.n >= s.cap {
		s.overflow++
		metricSourceOverflows.Inc()
		return false
	}
	s.n++
	return true
}

// add4 is Add of the IPv4 address whose big-endian bytes are v.
func (s *SourceSet) add4(v uint32) bool {
	if v == 0 {
		if !s.zero4 {
			s.zero4 = s.admit()
		}
		return s.zero4
	}
	at, ok := s.find4(v)
	switch {
	case ok:
		return true
	case !s.admit():
		return false
	case s.v4 == nil && at < inlineSources:
		s.inline[at] = v
	case s.v4 == nil || 4*s.n4() > 3*len(s.v4):
		s.grow4()
		at, _ = s.find4(v)
		fallthrough
	default:
		s.v4[at] = v
	}
	return true
}

// find4 reports whether the set holds the nonzero IPv4 member v and,
// if it does not, where v would go: the first free inline index
// (inlineSources when the array is full), or the free table slot its
// probe ended on.
func (s *SourceSet) find4(v uint32) (at int, ok bool) {
	if s.v4 == nil {
		for i, m := range s.inline[:] {
			switch m {
			case v:
				return i, true
			case 0:
				return i, false
			}
		}
		return inlineSources, false
	}
	mask := len(s.v4) - 1
	for i := int(hash4(v)) & mask; ; i = (i + 1) & mask {
		switch s.v4[i] {
		case v:
			return i, true
		case 0:
			return i, false
		}
	}
}

// n4 is the number of nonzero IPv4 members.
func (s *SourceSet) n4() int {
	n := s.n
	if s.zero4 {
		n--
	}
	if s.wide != nil {
		n -= s.wide.n
	}
	return n
}

// grow4 moves the nonzero IPv4 members into a fresh table: the first
// one when the inline array is full, else one twice the current size.
func (s *SourceSet) grow4() {
	old := s.v4
	if old == nil {
		old = s.inline[:]
	}
	s.v4 = make([]uint32, max(firstTableSlots, 2*len(s.v4)))
	for _, v := range old {
		if v != 0 {
			at, _ := s.find4(v)
			s.v4[at] = v
		}
	}
}

// addWide is Add of an IPv6 or invalid address.
func (s *SourceSet) addWide(sl sourceSlot) bool {
	if s.wide != nil {
		if _, ok := s.wide.find(sl); ok {
			return true
		}
	}
	if !s.admit() {
		return false
	}
	if s.wide == nil {
		s.wide = new(wideSet)
	}
	s.wide.insert(sl)
	return true
}

// find is find4 for a wide member, which the table always has room for.
func (w *wideSet) find(sl sourceSlot) (at int, ok bool) {
	mask := len(w.slots) - 1
	for i := int(sl.hash()) & mask; ; i = (i + 1) & mask {
		switch {
		case w.slots[i].form == formEmpty:
			return i, false
		case w.slots[i] == sl:
			return i, true
		}
	}
}

// insert adds sl, which w does not hold, growing the table first when
// it would pass 3/4 load.
func (w *wideSet) insert(sl sourceSlot) {
	if w.n++; 4*w.n > 3*len(w.slots) {
		old := w.slots
		w.slots = make([]sourceSlot, max(firstWideSlots, 2*len(old)))
		for _, o := range old {
			if o.form != formEmpty {
				at, _ := w.find(o)
				w.slots[at] = o
			}
		}
	}
	at, _ := w.find(sl)
	w.slots[at] = sl
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
	v4 := s.v4
	if v4 == nil {
		v4 = s.inline[:]
	}
	if s.zero4 {
		out = append(out, mapped4(0))
	}
	for _, v := range v4 {
		if v != 0 {
			out = append(out, mapped4(v))
		}
	}
	if s.wide != nil {
		for _, sl := range s.wide.slots {
			if sl.form != formEmpty {
				out = append(out, sl.addr)
			}
		}
	}
	slices.SortFunc(out, func(a, b [16]byte) int { return bytes.Compare(a[:], b[:]) })
	return out
}

// mapped4 is the 16-byte form, ::ffff:a.b.c.d, of the IPv4 address
// whose big-endian bytes are v.
func mapped4(v uint32) [16]byte {
	b := [16]byte{10: 0xff, 11: 0xff}
	binary.BigEndian.PutUint32(b[12:], v)
	return b
}

// RestoreSourceSet rebuilds a set from a Snapshot without touching the
// overflow telemetry counter (the rejections were already counted by
// the process that produced the snapshot). Addresses are restored via
// Unmap, the same normalization the flowstore replay path applies, and
// all of them, whatever cap says: a snapshot is not re-judged.
func RestoreSourceSet(cap int, addrs [][16]byte, overflow uint64) *SourceSet {
	s := NewSourceSet(0)
	for _, b := range addrs {
		s.AddAs16(b)
	}
	s.cap, s.overflow = cap, overflow
	return s
}
