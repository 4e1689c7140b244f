// Package bgp implements the minimal BGP machinery the IXP simulation
// needs: routes with AS paths and local preference, a RIB with
// longest-prefix-match and best-path selection, eBGP session state with
// saturation-induced flapping (the effect that truncated the study's VIP
// NTP self-attack), and an IXP route server that redistributes member
// announcements for multilateral peering.
package bgp

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"

	"booterscope/internal/telemetry/eventlog"
)

// BlackholeCommunity is the well-known BGP community (RFC 7999,
// 65535:666) that requests remotely-triggered blackholing: neighbors
// receiving a route tagged with it drop traffic toward the prefix at
// their edge.
const BlackholeCommunity uint32 = 65535<<16 | 666

// routeSource classifies how a route was learned; it drives local
// preference defaults (customer > peering > transit).
type routeSource uint8

// Route sources in decreasing default preference.
const (
	SourceCustomer routeSource = iota
	SourcePeering
	SourceTransit
)

// String returns the source name.
func (s routeSource) String() string {
	switch s {
	case SourceCustomer:
		return "customer"
	case SourcePeering:
		return "peering"
	case SourceTransit:
		return "transit"
	default:
		return fmt.Sprintf("RouteSource(%d)", uint8(s))
	}
}

// defaultLocalPref returns the conventional local preference for a
// source.
func (s routeSource) defaultLocalPref() int {
	switch s {
	case SourceCustomer:
		return 200
	case SourcePeering:
		return 150
	default:
		return 100
	}
}

// route is one BGP path toward a prefix.
type route struct {
	Prefix    netip.Prefix
	NextHopAS uint32
	// Path is the AS path, origin last.
	Path []uint32
	// LocalPref breaks ties first (higher wins); 0 means "derive from
	// Source".
	LocalPref int
	Source    routeSource
	// Communities carries BGP communities (e.g. BlackholeCommunity).
	Communities []uint32
}

// HasCommunity reports whether the route carries a community.
//
//bsvet:allow deadcode oracle: TestBlackholeLifecycle checks the blackhole community the route server redistributes
func (r route) HasCommunity(c uint32) bool {
	for _, have := range r.Communities {
		if have == c {
			return true
		}
	}
	return false
}

// effectiveLocalPref resolves the local preference.
func (r route) effectiveLocalPref() int {
	if r.LocalPref != 0 {
		return r.LocalPref
	}
	return r.Source.defaultLocalPref()
}

// better reports whether a is preferred over b by BGP decision order:
// local preference, AS-path length, then lowest next-hop ASN as a
// deterministic tiebreak.
func better(a, b route) bool {
	if la, lb := a.effectiveLocalPref(), b.effectiveLocalPref(); la != lb {
		return la > lb
	}
	if len(a.Path) != len(b.Path) {
		return len(a.Path) < len(b.Path)
	}
	return a.NextHopAS < b.NextHopAS
}

// RIB is a routing information base with best-path selection. It is safe
// for concurrent use.
type RIB struct {
	mu     sync.RWMutex
	routes map[netip.Prefix][]route
}

// NewRIB returns an empty RIB.
func NewRIB() *RIB {
	return &RIB{routes: make(map[netip.Prefix][]route)}
}

// insert adds or replaces the route from (prefix, nexthop AS).
func (rib *RIB) insert(r route) {
	rib.mu.Lock()
	defer rib.mu.Unlock()
	metricRouteInserts.Inc()
	list := rib.routes[r.Prefix]
	for i := range list {
		if list[i].NextHopAS == r.NextHopAS {
			list[i] = r
			return
		}
	}
	rib.routes[r.Prefix] = append(list, r)
}

// withdraw removes the route to prefix learned from nexthop AS. It
// reports whether a route was removed.
func (rib *RIB) withdraw(prefix netip.Prefix, nextHopAS uint32) bool {
	rib.mu.Lock()
	defer rib.mu.Unlock()
	list := rib.routes[prefix]
	for i := range list {
		if list[i].NextHopAS == nextHopAS {
			list = append(list[:i], list[i+1:]...)
			if len(list) == 0 {
				delete(rib.routes, prefix)
			} else {
				rib.routes[prefix] = list
			}
			metricRouteWithdraws.Inc()
			return true
		}
	}
	return false
}

// Lookup returns the best route for addr by longest prefix match, or
// false if no route covers it.
//
//bsvet:allow deadcode oracle: TestRIBBestPathSelection and TestConnectAndAnnounce read the RIB the route server fills
func (rib *RIB) Lookup(addr netip.Addr) (route, bool) {
	rib.mu.RLock()
	defer rib.mu.RUnlock()
	var best route
	bestBits := -1
	found := false
	for prefix, list := range rib.routes {
		if !prefix.Contains(addr) || len(list) == 0 {
			continue
		}
		candidate := bestOf(list)
		if prefix.Bits() > bestBits || (prefix.Bits() == bestBits && better(candidate, best)) {
			best = candidate
			bestBits = prefix.Bits()
			found = true
		}
	}
	return best, found
}

// Routes returns all routes for a prefix, best first.
//
//bsvet:allow deadcode oracle: TestRIBInsertReplaces and TestRoutesSorted read the per-prefix routes the RIB keeps
func (rib *RIB) Routes(prefix netip.Prefix) []route {
	rib.mu.RLock()
	defer rib.mu.RUnlock()
	list := append([]route(nil), rib.routes[prefix]...)
	sort.Slice(list, func(i, j int) bool { return better(list[i], list[j]) })
	return list
}

// Len reports the number of prefixes with at least one route.
func (rib *RIB) Len() int {
	rib.mu.RLock()
	defer rib.mu.RUnlock()
	return len(rib.routes)
}

func bestOf(list []route) route {
	metricBestPathRecomps.Inc()
	best := list[0]
	for _, r := range list[1:] {
		if better(r, best) {
			best = r
		}
	}
	return best
}

// SessionState is the (coarse) BGP FSM state.
type SessionState uint8

// Session states.
const (
	StateIdle SessionState = iota
	StateEstablished
)

// String returns the state name.
func (s SessionState) String() string {
	if s == StateEstablished {
		return "established"
	}
	return "idle"
}

// Session is one eBGP session. Saturating the underlying link starves
// keepalives; after HoldTime seconds of sustained saturation the session
// flaps and needs ReconnectTime seconds to come back — the failure mode
// that cut the 20 Gbps VIP NTP attack short in the study.
type Session struct {
	LocalAS uint32
	PeerAS  uint32

	mu    sync.Mutex
	state SessionState
	flaps int
	// SaturationFlapThreshold is the link utilization (0..1] above which
	// keepalives are considered lost. Default 0.98.
	SaturationFlapThreshold float64
	// HoldTime is how many consecutive saturated Ticks (seconds) the
	// session survives before flapping — the BGP hold timer. Default 180.
	HoldTime int
	// ReconnectTime is how many non-saturated Ticks a flapped session
	// needs before re-establishing. Default 90.
	ReconnectTime int

	satTicks  int
	downTicks int
}

// NewSession returns an idle session between the two ASes.
func NewSession(localAS, peerAS uint32) *Session {
	return &Session{
		LocalAS:                 localAS,
		PeerAS:                  peerAS,
		SaturationFlapThreshold: 0.98,
		HoldTime:                180,
		ReconnectTime:           90,
	}
}

// State reports the current FSM state.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Establish brings the session up.
func (s *Session) Establish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = StateEstablished
}

// Flap tears the session down, counting the event.
func (s *Session) Flap() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StateEstablished {
		s.flaps++
		metricSessionFlaps.Inc()
		s.emitFlapLocked("forced")
	}
	s.state = StateIdle
	s.satTicks = 0
	s.downTicks = 0
}

// emitFlapLocked records the teardown in the flight recorder — session
// flaps are exactly the collateral the incident dump exists to explain.
func (s *Session) emitFlapLocked(reason string) {
	eventlog.Active().Emit("bgp", "bgp_session_flap", 0,
		eventlog.AUint("local_as", uint64(s.LocalAS)),
		eventlog.AUint("peer_as", uint64(s.PeerAS)),
		eventlog.A("reason", reason))
}

// Flaps reports how many times the session flapped.
func (s *Session) Flaps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flaps
}

// Tick advances the session one second given the instantaneous link
// utilization (0..1). An established session flaps after HoldTime
// consecutive saturated seconds (keepalive starvation); a flapped
// session re-establishes after ReconnectTime non-saturated seconds. It
// returns true if the state changed.
func (s *Session) Tick(utilization float64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	threshold := s.SaturationFlapThreshold
	if threshold <= 0 {
		threshold = 0.98
	}
	hold := s.HoldTime
	if hold <= 0 {
		hold = 180
	}
	reconnect := s.ReconnectTime
	if reconnect <= 0 {
		reconnect = 90
	}
	saturated := utilization >= threshold
	switch s.state {
	case StateEstablished:
		if !saturated {
			s.satTicks = 0
			return false
		}
		s.satTicks++
		if s.satTicks >= hold {
			s.state = StateIdle
			s.flaps++
			metricSessionFlaps.Inc()
			s.emitFlapLocked("keepalive_starvation")
			s.satTicks = 0
			s.downTicks = 0
			return true
		}
		return false
	default: // StateIdle
		if saturated {
			s.downTicks = 0
			return false
		}
		s.downTicks++
		if s.downTicks >= reconnect {
			s.state = StateEstablished
			s.downTicks = 0
			return true
		}
		return false
	}
}

// RouteServer is an IXP route server: members announce prefixes to it
// and it redistributes them to every other member without inserting its
// own AS into the path (transparent reflection, as at real IXPs).
type RouteServer struct {
	ASN uint32

	mu      sync.Mutex
	members map[uint32]*RIB
	// announcements maps announcing member -> its announced routes.
	announcements map[uint32][]route
}

// NewRouteServer returns a route server with the given (display-only)
// ASN.
func NewRouteServer(asn uint32) *RouteServer {
	return &RouteServer{
		ASN:           asn,
		members:       make(map[uint32]*RIB),
		announcements: make(map[uint32][]route),
	}
}

// Join registers a member and its RIB, replaying existing announcements
// into it.
func (rs *RouteServer) Join(asn uint32, rib *RIB) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.members[asn] = rib
	for from, routes := range rs.announcements {
		if from == asn {
			continue
		}
		for _, r := range routes {
			rib.insert(r)
		}
	}
}

// Members returns the member ASNs in ascending order.
//
//bsvet:allow deadcode oracle: TestRouteServerMembers and TestConnectAndAnnounce check session setup
func (rs *RouteServer) Members() []uint32 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]uint32, 0, len(rs.members))
	for asn := range rs.members {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Announce distributes a member's prefix to all other members as a
// peering route with the announcer as next hop.
func (rs *RouteServer) Announce(fromAS uint32, prefix netip.Prefix) error {
	return rs.AnnounceWithCommunities(fromAS, prefix, nil)
}

// AnnounceWithCommunities distributes a member's prefix carrying BGP
// communities — how RTBH blackhole requests travel over the route
// server.
func (rs *RouteServer) AnnounceWithCommunities(fromAS uint32, prefix netip.Prefix, communities []uint32) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if _, ok := rs.members[fromAS]; !ok {
		return fmt.Errorf("bgp: AS%d is not a route server member", fromAS)
	}
	route := route{
		Prefix:      prefix,
		NextHopAS:   fromAS,
		Path:        []uint32{fromAS},
		Source:      SourcePeering,
		Communities: communities,
	}
	rs.announcements[fromAS] = append(rs.announcements[fromAS], route)
	for asn, rib := range rs.members {
		if asn == fromAS {
			continue
		}
		rib.insert(route)
	}
	return nil
}

// Withdraw removes a member's prefix from all other members' RIBs.
func (rs *RouteServer) Withdraw(fromAS uint32, prefix netip.Prefix) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	routes := rs.announcements[fromAS]
	kept := routes[:0]
	for _, r := range routes {
		if r.Prefix != prefix {
			kept = append(kept, r)
		}
	}
	rs.announcements[fromAS] = kept
	for asn, rib := range rs.members {
		if asn == fromAS {
			continue
		}
		rib.withdraw(prefix, fromAS)
	}
}
