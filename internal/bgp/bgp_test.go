package bgp

import (
	"net/netip"
	"testing"
)

var (
	p24 = netip.MustParsePrefix("203.0.113.0/24")
	p16 = netip.MustParsePrefix("203.0.0.0/16")
	p0  = netip.MustParsePrefix("0.0.0.0/0")
)

func TestRouteSourcePrefs(t *testing.T) {
	if SourceCustomer.defaultLocalPref() <= SourcePeering.defaultLocalPref() {
		t.Error("customer must beat peering")
	}
	if SourcePeering.defaultLocalPref() <= SourceTransit.defaultLocalPref() {
		t.Error("peering must beat transit")
	}
	if SourcePeering.String() != "peering" || SourceTransit.String() != "transit" || SourceCustomer.String() != "customer" {
		t.Error("source names wrong")
	}
}

func TestEffectiveLocalPref(t *testing.T) {
	r := route{Source: SourcePeering}
	if r.effectiveLocalPref() != 150 {
		t.Errorf("derived pref = %d", r.effectiveLocalPref())
	}
	r.LocalPref = 999
	if r.effectiveLocalPref() != 999 {
		t.Errorf("explicit pref = %d", r.effectiveLocalPref())
	}
}

func TestRIBBestPathSelection(t *testing.T) {
	rib := NewRIB()
	rib.insert(route{Prefix: p24, NextHopAS: 100, Path: []uint32{100, 65000}, Source: SourceTransit})
	rib.insert(route{Prefix: p24, NextHopAS: 200, Path: []uint32{200, 65000}, Source: SourcePeering})
	r, ok := rib.Lookup(netip.MustParseAddr("203.0.113.50"))
	if !ok {
		t.Fatal("no route")
	}
	if r.NextHopAS != 200 {
		t.Errorf("best nexthop = %d, want peering route 200", r.NextHopAS)
	}
}

func TestRIBShorterPathWins(t *testing.T) {
	rib := NewRIB()
	rib.insert(route{Prefix: p24, NextHopAS: 100, Path: []uint32{100, 300, 65000}, Source: SourcePeering})
	rib.insert(route{Prefix: p24, NextHopAS: 200, Path: []uint32{200, 65000}, Source: SourcePeering})
	r, _ := rib.Lookup(netip.MustParseAddr("203.0.113.1"))
	if r.NextHopAS != 200 {
		t.Errorf("best nexthop = %d, want shorter path via 200", r.NextHopAS)
	}
}

func TestRIBTiebreakLowestASN(t *testing.T) {
	rib := NewRIB()
	rib.insert(route{Prefix: p24, NextHopAS: 300, Path: []uint32{300}, Source: SourcePeering})
	rib.insert(route{Prefix: p24, NextHopAS: 100, Path: []uint32{100}, Source: SourcePeering})
	r, _ := rib.Lookup(netip.MustParseAddr("203.0.113.1"))
	if r.NextHopAS != 100 {
		t.Errorf("tiebreak nexthop = %d", r.NextHopAS)
	}
}

func TestRIBLongestPrefixMatch(t *testing.T) {
	rib := NewRIB()
	rib.insert(route{Prefix: p0, NextHopAS: 1, Path: []uint32{1}, Source: SourceTransit})
	rib.insert(route{Prefix: p16, NextHopAS: 2, Path: []uint32{2}, Source: SourceTransit})
	rib.insert(route{Prefix: p24, NextHopAS: 3, Path: []uint32{3}, Source: SourceTransit})
	r, _ := rib.Lookup(netip.MustParseAddr("203.0.113.9"))
	if r.NextHopAS != 3 {
		t.Errorf("lookup in /24 = AS%d", r.NextHopAS)
	}
	r, _ = rib.Lookup(netip.MustParseAddr("203.0.200.9"))
	if r.NextHopAS != 2 {
		t.Errorf("lookup in /16 = AS%d", r.NextHopAS)
	}
	r, _ = rib.Lookup(netip.MustParseAddr("8.8.8.8"))
	if r.NextHopAS != 1 {
		t.Errorf("default route = AS%d", r.NextHopAS)
	}
}

func TestRIBNoRoute(t *testing.T) {
	rib := NewRIB()
	rib.insert(route{Prefix: p24, NextHopAS: 3, Path: []uint32{3}})
	if _, ok := rib.Lookup(netip.MustParseAddr("8.8.8.8")); ok {
		t.Error("lookup outside coverage should fail")
	}
}

func TestRIBInsertReplaces(t *testing.T) {
	rib := NewRIB()
	rib.insert(route{Prefix: p24, NextHopAS: 100, Path: []uint32{100, 1, 2}, Source: SourcePeering})
	rib.insert(route{Prefix: p24, NextHopAS: 100, Path: []uint32{100}, Source: SourcePeering})
	routes := rib.Routes(p24)
	if len(routes) != 1 {
		t.Fatalf("routes = %d, want replacement not duplicate", len(routes))
	}
	if len(routes[0].Path) != 1 {
		t.Errorf("path = %v", routes[0].Path)
	}
}

func TestRIBWithdraw(t *testing.T) {
	rib := NewRIB()
	rib.insert(route{Prefix: p24, NextHopAS: 100, Path: []uint32{100}, Source: SourcePeering})
	rib.insert(route{Prefix: p24, NextHopAS: 200, Path: []uint32{200}, Source: SourceTransit})
	if !rib.withdraw(p24, 100) {
		t.Fatal("withdraw failed")
	}
	r, ok := rib.Lookup(netip.MustParseAddr("203.0.113.1"))
	if !ok || r.NextHopAS != 200 {
		t.Errorf("after withdraw: %+v ok=%t", r, ok)
	}
	if rib.withdraw(p24, 100) {
		t.Error("double withdraw should report false")
	}
	rib.withdraw(p24, 200)
	if rib.Len() != 0 {
		t.Errorf("rib len = %d", rib.Len())
	}
}

func TestRoutesSorted(t *testing.T) {
	rib := NewRIB()
	rib.insert(route{Prefix: p24, NextHopAS: 100, Path: []uint32{100}, Source: SourceTransit})
	rib.insert(route{Prefix: p24, NextHopAS: 200, Path: []uint32{200}, Source: SourcePeering})
	rib.insert(route{Prefix: p24, NextHopAS: 300, Path: []uint32{300}, Source: SourceCustomer})
	routes := rib.Routes(p24)
	if len(routes) != 3 {
		t.Fatalf("routes = %d", len(routes))
	}
	if routes[0].Source != SourceCustomer || routes[2].Source != SourceTransit {
		t.Errorf("order = %v %v %v", routes[0].Source, routes[1].Source, routes[2].Source)
	}
}

func TestSessionLifecycle(t *testing.T) {
	s := NewSession(65000, 174)
	if s.State() != StateIdle {
		t.Error("new session should be idle")
	}
	s.Establish()
	if s.State() != StateEstablished {
		t.Error("establish failed")
	}
	s.Flap()
	if s.State() != StateIdle || s.Flaps() != 1 {
		t.Errorf("after flap: state=%v flaps=%d", s.State(), s.Flaps())
	}
	// Flapping an idle session must not double count.
	s.Flap()
	if s.Flaps() != 1 {
		t.Errorf("idle flap counted: %d", s.Flaps())
	}
	if StateIdle.String() != "idle" || StateEstablished.String() != "established" {
		t.Error("state names wrong")
	}
}

func TestSessionSaturationFlap(t *testing.T) {
	s := NewSession(65000, 174)
	s.HoldTime = 3
	s.ReconnectTime = 2
	s.Establish()
	// Keepalive starvation: the session survives HoldTime-1 saturated
	// seconds, then flaps.
	if s.Tick(1.0) || s.Tick(1.0) {
		t.Error("session flapped before the hold timer expired")
	}
	if !s.Tick(1.0) {
		t.Error("session should flap after HoldTime saturated ticks")
	}
	if s.State() != StateIdle || s.Flaps() != 1 {
		t.Errorf("state=%v flaps=%d", s.State(), s.Flaps())
	}
	// Recovery needs ReconnectTime calm seconds.
	if s.Tick(0.2) {
		t.Error("re-established too early")
	}
	if !s.Tick(0.2) {
		t.Error("session should re-establish after ReconnectTime calm ticks")
	}
	if s.State() != StateEstablished {
		t.Error("session did not recover")
	}
	// A stable link keeps the session up.
	if s.Tick(0.5) {
		t.Error("stable tick changed state")
	}
}

func TestSessionHoldTimerResets(t *testing.T) {
	s := NewSession(65000, 174)
	s.HoldTime = 3
	s.Establish()
	// Intermittent saturation never accumulates HoldTime consecutive
	// seconds: no flap.
	for i := 0; i < 10; i++ {
		s.Tick(1.0)
		s.Tick(1.0)
		s.Tick(0.1) // keepalive gets through, timer resets
	}
	if s.Flaps() != 0 {
		t.Errorf("flaps = %d, want 0 for intermittent saturation", s.Flaps())
	}
}

func TestSessionReconnectTimerResets(t *testing.T) {
	s := NewSession(65000, 174)
	s.HoldTime = 1
	s.ReconnectTime = 3
	s.Establish()
	s.Tick(1.0) // flap
	if s.State() != StateIdle {
		t.Fatal("session should be down")
	}
	// Saturation during reconnect resets the timer.
	s.Tick(0.1)
	s.Tick(0.1)
	s.Tick(1.0)
	s.Tick(0.1)
	s.Tick(0.1)
	if s.State() != StateIdle {
		t.Error("reconnect timer should have been reset by saturation")
	}
	s.Tick(0.1)
	if s.State() != StateEstablished {
		t.Error("session should recover after 3 calm ticks")
	}
}

func TestRouteServerRedistribution(t *testing.T) {
	rs := NewRouteServer(65500)
	ribA, ribB, ribC := NewRIB(), NewRIB(), NewRIB()
	rs.Join(100, ribA)
	rs.Join(200, ribB)
	if err := rs.Announce(100, p24); err != nil {
		t.Fatal(err)
	}
	// B sees A's prefix; A does not see its own announcement back.
	if _, ok := ribB.Lookup(netip.MustParseAddr("203.0.113.1")); !ok {
		t.Error("member B missing redistributed route")
	}
	if _, ok := ribA.Lookup(netip.MustParseAddr("203.0.113.1")); ok {
		t.Error("announcement reflected back to announcer")
	}
	// A later joiner receives existing announcements.
	rs.Join(300, ribC)
	r, ok := ribC.Lookup(netip.MustParseAddr("203.0.113.1"))
	if !ok {
		t.Fatal("late joiner missing replayed route")
	}
	if r.NextHopAS != 100 || r.Source != SourcePeering {
		t.Errorf("replayed route = %+v", r)
	}
	// Transparent reflection: the path contains only the announcer.
	if len(r.Path) != 1 || r.Path[0] != 100 {
		t.Errorf("path = %v, route server must not prepend itself", r.Path)
	}
}

func TestRouteServerWithdraw(t *testing.T) {
	rs := NewRouteServer(65500)
	ribA, ribB := NewRIB(), NewRIB()
	rs.Join(100, ribA)
	rs.Join(200, ribB)
	if err := rs.Announce(100, p24); err != nil {
		t.Fatal(err)
	}
	rs.Withdraw(100, p24)
	if _, ok := ribB.Lookup(netip.MustParseAddr("203.0.113.1")); ok {
		t.Error("withdrawn route still present")
	}
	// New joiners must not receive withdrawn announcements.
	ribC := NewRIB()
	rs.Join(300, ribC)
	if ribC.Len() != 0 {
		t.Error("withdrawn announcement replayed to late joiner")
	}
}

func TestRouteServerNonMember(t *testing.T) {
	rs := NewRouteServer(65500)
	if err := rs.Announce(999, p24); err == nil {
		t.Error("non-member announce should fail")
	}
}

func TestRouteServerMembers(t *testing.T) {
	rs := NewRouteServer(65500)
	rs.Join(300, NewRIB())
	rs.Join(100, NewRIB())
	rs.Join(200, NewRIB())
	m := rs.Members()
	if len(m) != 3 || m[0] != 100 || m[2] != 300 {
		t.Errorf("members = %v", m)
	}
}

func BenchmarkRIBLookup(b *testing.B) {
	rib := NewRIB()
	rib.insert(route{Prefix: p0, NextHopAS: 1, Path: []uint32{1}, Source: SourceTransit})
	for i := 0; i < 500; i++ {
		prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(i >> 4), byte(i << 4), 0, 0}), 16)
		rib.insert(route{Prefix: prefix, NextHopAS: uint32(i + 2), Path: []uint32{uint32(i + 2)}, Source: SourcePeering})
	}
	addr := netip.MustParseAddr("203.0.113.9")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rib.Lookup(addr)
	}
}
