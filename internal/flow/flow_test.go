package flow

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"booterscope/internal/packet"
)

var (
	t0   = time.Date(2018, 12, 1, 0, 0, 0, 0, time.UTC)
	addr = netip.MustParseAddr
)

func rec(src, dst string, sport, dport uint16, pkts, bytes uint64, start time.Time) Record {
	return Record{
		Key:          Key{Src: addr(src), Dst: addr(dst), SrcPort: sport, DstPort: dport, Protocol: packet.IPProtoUDP},
		Packets:      pkts,
		Bytes:        bytes,
		Start:        start,
		End:          start,
		SamplingRate: 1,
	}
}

func TestDirectionString(t *testing.T) {
	if Ingress.String() != "ingress" || Egress.String() != "egress" {
		t.Error("direction names wrong")
	}
}

func TestScaledCounters(t *testing.T) {
	r := rec("1.1.1.1", "2.2.2.2", 123, 999, 10, 4860, t0)
	r.SamplingRate = 1000
	if r.ScaledPackets() != 10000 {
		t.Errorf("ScaledPackets = %d", r.ScaledPackets())
	}
	if r.ScaledBytes() != 4_860_000 {
		t.Errorf("ScaledBytes = %d", r.ScaledBytes())
	}
	r.SamplingRate = 0 // treat as unsampled
	if r.ScaledPackets() != 10 {
		t.Errorf("unsampled ScaledPackets = %d", r.ScaledPackets())
	}
}

func TestAvgPacketSize(t *testing.T) {
	r := rec("1.1.1.1", "2.2.2.2", 123, 999, 10, 4860, t0)
	if got := r.AvgPacketSize(); got != 486 {
		t.Errorf("AvgPacketSize = %v", got)
	}
	empty := Record{}
	if empty.AvgPacketSize() != 0 {
		t.Error("empty record should have 0 avg size")
	}
}

func TestFromPacket(t *testing.T) {
	pkt := packet.Build(
		&packet.IPv4{TTL: 64, Protocol: packet.IPProtoUDP, Src: addr("10.0.0.1"), Dst: addr("192.0.2.5")},
		&packet.UDP{SrcPort: 123, DstPort: 44000},
		packet.Payload(make([]byte, 458)),
	)
	d, err := packet.DecodeIPv4(pkt)
	if err != nil {
		t.Fatal(err)
	}
	r := FromPacket(d, t0)
	if r.Bytes != 486 {
		t.Errorf("Bytes = %d, want IP total length 486", r.Bytes)
	}
	if r.SrcPort != 123 || r.DstPort != 44000 {
		t.Errorf("ports = %d/%d", r.SrcPort, r.DstPort)
	}
	if r.Packets != 1 || r.SamplingRate != 1 {
		t.Errorf("packets=%d rate=%d", r.Packets, r.SamplingRate)
	}
}

func TestFromPacketTCP(t *testing.T) {
	pkt := packet.Build(
		&packet.IPv4{TTL: 64, Protocol: 6, Src: addr("10.0.0.1"), Dst: addr("192.0.2.5")},
		&packet.TCP{SrcPort: 80, DstPort: 50000},
	)
	d, err := packet.DecodeIPv4(pkt)
	if err != nil {
		t.Fatal(err)
	}
	r := FromPacket(d, t0)
	if r.SrcPort != 80 || r.DstPort != 50000 || r.Protocol != 6 {
		t.Errorf("record = %+v", r.Key)
	}
}

func TestTableAggregation(t *testing.T) {
	tbl := NewTable()
	r1 := rec("1.1.1.1", "2.2.2.2", 123, 999, 1, 486, t0)
	r2 := rec("1.1.1.1", "2.2.2.2", 123, 999, 1, 490, t0.Add(time.Second))
	if f := tbl.Add(r1); f != nil {
		t.Error("first add flushed something")
	}
	if f := tbl.Add(r2); f != nil {
		t.Error("merge flushed something")
	}
	if tbl.Len() != 1 {
		t.Fatalf("table has %d flows", tbl.Len())
	}
	out := tbl.Flush()
	if len(out) != 1 {
		t.Fatalf("flush returned %d", len(out))
	}
	if out[0].Packets != 2 || out[0].Bytes != 976 {
		t.Errorf("merged = %d pkts %d bytes", out[0].Packets, out[0].Bytes)
	}
	if !out[0].End.Equal(t0.Add(time.Second)) {
		t.Errorf("End = %v", out[0].End)
	}
	if tbl.Len() != 0 {
		t.Error("flush did not empty table")
	}
}

func TestTableDistinctKeys(t *testing.T) {
	tbl := NewTable()
	tbl.Add(rec("1.1.1.1", "2.2.2.2", 123, 999, 1, 486, t0))
	tbl.Add(rec("1.1.1.2", "2.2.2.2", 123, 999, 1, 486, t0))
	tbl.Add(rec("1.1.1.1", "2.2.2.2", 124, 999, 1, 486, t0))
	if tbl.Len() != 3 {
		t.Errorf("table has %d flows, want 3", tbl.Len())
	}
}

func TestTableIdleTimeout(t *testing.T) {
	tbl := NewTable()
	tbl.Add(rec("1.1.1.1", "2.2.2.2", 123, 999, 1, 486, t0))
	flushed := tbl.Add(rec("1.1.1.1", "2.2.2.2", 123, 999, 1, 490, t0.Add(20*time.Second)))
	if flushed == nil {
		t.Fatal("idle-expired flow was not flushed")
	}
	if flushed.Packets != 1 || flushed.Bytes != 486 {
		t.Errorf("flushed = %+v", flushed)
	}
	out := tbl.Flush()
	if len(out) != 1 || out[0].Bytes != 490 {
		t.Errorf("new flow after flush = %+v", out)
	}
}

func TestTableActiveTimeout(t *testing.T) {
	tbl := NewTable()
	base := rec("1.1.1.1", "2.2.2.2", 123, 999, 1, 486, t0)
	tbl.Add(base)
	// Keep the flow alive with sub-idle gaps until the active timeout trips.
	var flushed *Record
	for i := 1; i <= 8; i++ {
		r := rec("1.1.1.1", "2.2.2.2", 123, 999, 1, 486, t0.Add(time.Duration(i)*10*time.Second))
		if f := tbl.Add(r); f != nil {
			flushed = f
			break
		}
	}
	if flushed == nil {
		t.Fatal("active timeout never triggered")
	}
	if flushed.Packets < 2 {
		t.Errorf("flushed flow has %d packets", flushed.Packets)
	}
}

func BenchmarkTableAdd(b *testing.B) {
	tbl := NewTable()
	recs := make([]Record, 1024)
	for i := range recs {
		recs[i] = rec("10.0.0.1", "192.0.2.9", uint16(i), 40000, 1, 486, t0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl.Add(recs[i%len(recs)])
	}
}

func TestSourceSetCapAndOverflow(t *testing.T) {
	s := NewSourceSet(3)
	for i := 0; i < 5; i++ {
		s.Add(netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}))
	}
	if s.Len() != 3 {
		t.Errorf("len = %d, want capped at 3", s.Len())
	}
	if s.Overflow() != 2 {
		t.Errorf("overflow = %d, want 2", s.Overflow())
	}
	// Re-adding a tracked address succeeds and costs nothing.
	if !s.Add(netip.AddrFrom4([4]byte{10, 0, 0, 1})) {
		t.Error("tracked address rejected")
	}
	if s.Overflow() != 2 {
		t.Errorf("overflow moved to %d on a tracked re-add", s.Overflow())
	}
	// cap <= 0 means unbounded.
	u := NewSourceSet(0)
	for i := 0; i < 100; i++ {
		if !u.Add(netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})) {
			t.Fatal("unbounded set rejected an address")
		}
	}
	if u.Len() != 100 || u.Overflow() != 0 {
		t.Errorf("unbounded set len/overflow = %d/%d", u.Len(), u.Overflow())
	}
}

// refSourceSet is SourceSet as it was before it kept its first
// addresses inline: one map, a cap, an overflow count.
type refSourceSet struct {
	set      map[netip.Addr]struct{}
	cap      int
	overflow uint64
}

func (s *refSourceSet) add(a netip.Addr) bool {
	if _, ok := s.set[a]; ok {
		return true
	}
	if s.cap > 0 && len(s.set) >= s.cap {
		s.overflow++
		return false
	}
	s.set[a] = struct{}{}
	return true
}

func (s *refSourceSet) snapshot() [][16]byte {
	out := make([][16]byte, 0, len(s.set))
	for a := range s.set {
		out = append(out, a.As16())
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

// TestSourceSetMatchesMapReference drives the inline-then-spilled set
// and a plain map through the same Adds — repeats, IPv4-mapped twins of
// tracked addresses, the invalid address — at caps below, at and above
// the inline size and unbounded, comparing every return value, Len,
// Overflow and Snapshot as the set crosses the spill boundary, and
// again after a Snapshot/Restore round trip taken at every size.
func TestSourceSetMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	addr := func() netip.Addr {
		a := netip.AddrFrom4([4]byte{198, 51, 100, byte(rng.Intn(40))})
		switch rng.Intn(8) {
		case 0:
			return netip.AddrFrom16(a.As16()) // ::ffff:a — a different address, same As16
		case 1:
			return netip.Addr{}
		}
		return a
	}
	for _, limit := range []int{0, 1, inlineSources - 1, inlineSources, inlineSources + 1, 3 * inlineSources} {
		got := NewSourceSet(limit)
		want := &refSourceSet{set: map[netip.Addr]struct{}{}, cap: limit}
		same := func(when string, got *SourceSet) {
			t.Helper()
			if got.Len() != len(want.set) || got.Overflow() != want.overflow || !reflect.DeepEqual(got.Snapshot(), want.snapshot()) {
				t.Fatalf("cap %d, %s: len %d overflow %d snapshot %v; reference len %d overflow %d snapshot %v",
					limit, when, got.Len(), got.Overflow(), got.Snapshot(), len(want.set), want.overflow, want.snapshot())
			}
		}
		for i := 0; i < 400; i++ {
			a := addr()
			if g, w := got.Add(a), want.add(a); g != w {
				t.Fatalf("cap %d, add %d (%v): Add = %v, reference %v", limit, i, a, g, w)
			}
			same(fmt.Sprintf("after add %d", i), got)

			// A restored set holds what its snapshot lists: the As16 forms,
			// unmapped. Feed both sides the same continuation.
			back := RestoreSourceSet(limit, got.Snapshot(), got.Overflow())
			refBack := &refSourceSet{set: map[netip.Addr]struct{}{}, cap: limit, overflow: want.overflow}
			for _, b := range want.snapshot() {
				refBack.set[netip.AddrFrom16(b).Unmap()] = struct{}{}
			}
			next := addr()
			if g, w := back.Add(next), refBack.add(next); g != w || back.Len() != len(refBack.set) || back.Overflow() != refBack.overflow {
				t.Fatalf("cap %d, restored at add %d, then %v: Add = %v len %d overflow %d; reference %v %d %d",
					limit, i, next, g, back.Len(), back.Overflow(), w, len(refBack.set), refBack.overflow)
			}
		}
		if limit == 0 && got.set == nil {
			t.Fatal("the unbounded set never spilled: the boundary was not crossed")
		}
	}
}
