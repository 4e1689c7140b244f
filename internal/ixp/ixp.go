// Package ixp simulates the Internet exchange point fabric the study's
// measurement AS connects to: member ASes on the peering LAN, a route
// server for multilateral peering, a transit provider reachable over the
// same physical port, per-second traffic handover, port saturation with
// BGP session flapping, and the platform's sampled flow export.
//
// The handover model reproduces the study's key observations: with the
// transit link enabled most attack traffic (~80 %) arrives via transit
// because many source networks prefer their own upstream paths; with
// transit disabled ("no transit" experiments) more IXP members hand over
// traffic directly but total volume drops because networks without a
// peering path cannot reach the measurement prefix at all.
package ixp

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"booterscope/internal/bgp"
	"booterscope/internal/flow"
	"booterscope/internal/netutil"
	"booterscope/internal/packet"
)

// Errors returned by the fabric.
var (
	errNotConnected = errors.New("ixp: measurement AS not connected")
	errUnknownAS    = errors.New("ixp: unknown member AS")
)

// Member is one network connected to the IXP peering LAN.
type Member struct {
	ASN uint32
	// PortCapacity bounds what the member can hand over per second.
	PortCapacity netutil.Bitrate
	// PrefersOwnTransit marks members whose routing policy prefers their
	// own upstream over IXP peering when both paths exist. Their traffic
	// reaches the measurement AS through its transit link while that link
	// is up.
	PrefersOwnTransit bool
	// RIB is the member's routing table.
	RIB *bgp.RIB
}

// Config configures a fabric.
type Config struct {
	// RouteServerASN is the route server's AS (display only).
	RouteServerASN uint32
	// TransitASN is the upstream transit provider of the measurement AS.
	TransitASN uint32
	// PlatformSamplingRate is the 1-in-N rate of the IXP's IPFIX export.
	PlatformSamplingRate uint32
	// Seed drives the platform sampler.
	Seed uint64
	// TransitHoldTime and TransitReconnectTime override the measurement
	// AS transit session's BGP hold/reconnect behaviour in seconds
	// (defaults 180/90; see bgp.Session).
	TransitHoldTime      int
	TransitReconnectTime int
}

// Fabric is the simulated exchange.
type Fabric struct {
	cfg     Config
	rs      *bgp.RouteServer
	members map[uint32]*Member

	meas *measurement
	rand *netutil.Rand
}

// measurement is the connected measurement AS state.
type measurement struct {
	asn          uint32
	prefix       netip.Prefix
	portCapacity netutil.Bitrate
	transit      *bgp.Session
	transitOn    bool // operator's choice; session state is separate
	rib          *bgp.RIB
	// blackholed holds /32s announced with the RTBH community; members
	// and the transit provider drop traffic toward them at their edge.
	blackholed map[netip.Addr]bool
	// flowspec holds the active filtering rules all neighbors apply.
	flowspec []bgp.FlowSpecRule
}

// New builds an empty fabric.
func New(cfg Config) *Fabric {
	if cfg.PlatformSamplingRate == 0 {
		cfg.PlatformSamplingRate = 10000
	}
	return &Fabric{
		cfg:     cfg,
		rs:      bgp.NewRouteServer(cfg.RouteServerASN),
		members: make(map[uint32]*Member),
		rand:    netutil.NewRand(cfg.Seed).Fork("fabric"),
	}
}

// AddMember connects a member AS to the peering LAN.
func (f *Fabric) AddMember(asn uint32, capacity netutil.Bitrate, prefersOwnTransit bool) *Member {
	m := &Member{
		ASN:               asn,
		PortCapacity:      capacity,
		PrefersOwnTransit: prefersOwnTransit,
		RIB:               bgp.NewRIB(),
	}
	f.members[asn] = m
	f.rs.Join(asn, m.RIB)
	return m
}

// Members returns the member count.
//
//bsvet:allow deadcode oracle: TestConnectAndAnnounce and TestRouteServerMembers check fabric setup
func (f *Fabric) Members() int { return len(f.members) }

// Member returns a member by ASN.
//
//bsvet:allow deadcode oracle: TestBlackholeLifecycle and TestConnectAndAnnounce read a member's RIB
func (f *Fabric) Member(asn uint32) (*Member, error) {
	m, ok := f.members[asn]
	if !ok {
		return nil, fmt.Errorf("%w: %d", errUnknownAS, asn)
	}
	return m, nil
}

// ConnectMeasurementAS attaches the experiment AS: a port of the given
// capacity, a /24 announced via the route server to all members, and a
// transit session over the same physical interface.
func (f *Fabric) ConnectMeasurementAS(asn uint32, prefix netip.Prefix, capacity netutil.Bitrate) error {
	rib := bgp.NewRIB()
	f.rs.Join(asn, rib)
	if err := f.rs.Announce(asn, prefix); err != nil {
		return fmt.Errorf("ixp: announcing measurement prefix: %w", err)
	}
	transit := bgp.NewSession(asn, f.cfg.TransitASN)
	if f.cfg.TransitHoldTime > 0 {
		transit.HoldTime = f.cfg.TransitHoldTime
	}
	if f.cfg.TransitReconnectTime > 0 {
		transit.ReconnectTime = f.cfg.TransitReconnectTime
	}
	transit.Establish()
	f.meas = &measurement{
		asn:          asn,
		prefix:       prefix,
		portCapacity: capacity,
		transit:      transit,
		transitOn:    true,
		rib:          rib,
		blackholed:   make(map[netip.Addr]bool),
	}
	return nil
}

// AnnounceBlackhole requests RTBH for one address of the measurement
// prefix: a /32 tagged with the blackhole community goes to the route
// server and the transit provider, and all neighbors start dropping
// traffic toward it. This is the paper's ethics safety valve for
// runaway self-attacks.
func (f *Fabric) AnnounceBlackhole(addr netip.Addr) error {
	if f.meas == nil {
		return errNotConnected
	}
	if !f.meas.prefix.Contains(addr) {
		return fmt.Errorf("ixp: %v is outside the measurement prefix %v", addr, f.meas.prefix)
	}
	host := netip.PrefixFrom(addr, 32)
	if err := f.rs.AnnounceWithCommunities(f.meas.asn, host, []uint32{bgp.BlackholeCommunity}); err != nil {
		return err
	}
	f.meas.blackholed[addr] = true
	return nil
}

// WithdrawBlackhole removes the RTBH announcement for addr.
func (f *Fabric) WithdrawBlackhole(addr netip.Addr) error {
	if f.meas == nil {
		return errNotConnected
	}
	f.rs.Withdraw(f.meas.asn, netip.PrefixFrom(addr, 32))
	delete(f.meas.blackholed, addr)
	return nil
}

// IsBlackholed reports whether traffic toward addr is being dropped at
// the neighbors' edges.
func (f *Fabric) IsBlackholed(addr netip.Addr) bool {
	return f.meas != nil && f.meas.blackholed[addr]
}

// AnnounceFlowSpec distributes a FlowSpec filtering rule to all
// neighbors. Unlike RTBH blackholing, a rule can discard only the
// attack traffic (e.g. UDP src port 123, packets >= 200 bytes) and keep
// the victim reachable.
func (f *Fabric) AnnounceFlowSpec(rule bgp.FlowSpecRule) error {
	if f.meas == nil {
		return errNotConnected
	}
	if !rule.Dst.IsValid() || !f.meas.prefix.Overlaps(rule.Dst) {
		return fmt.Errorf("ixp: flowspec rule %v outside the measurement prefix %v", rule.Dst, f.meas.prefix)
	}
	// Validate the rule by round-tripping its NLRI encoding, as a real
	// speaker would before propagating it.
	wire, err := rule.Encode()
	if err != nil {
		return fmt.Errorf("ixp: encoding flowspec rule: %w", err)
	}
	decoded, err := bgp.DecodeFlowSpec(wire)
	if err != nil {
		return fmt.Errorf("ixp: flowspec rule does not round-trip: %w", err)
	}
	f.meas.flowspec = append(f.meas.flowspec, decoded)
	return nil
}

// FlowSpecRules reports the number of active rules.
//
//bsvet:allow deadcode oracle: TestFlowSpecFiltersAttackOnly and TestFlowSpecValidation count the installed rules
func (f *Fabric) FlowSpecRules() int {
	if f.meas == nil {
		return 0
	}
	return len(f.meas.flowspec)
}

// flowSpecDiscards reports whether any rule discards this source’s
// traffic toward dst.
func (f *Fabric) flowSpecDiscards(dst netip.Addr, src SourceTraffic) bool {
	for _, r := range f.meas.flowspec {
		if r.Matches(dst, packet.IPProtoUDP, src.SrcPort, src.PacketSize) {
			return true
		}
	}
	return false
}

// MeasurementASN returns the connected measurement AS number.
//
//bsvet:allow deadcode oracle: TestConnectAndAnnounce and TestNotConnectedErrors check the measurement AS connection
func (f *Fabric) MeasurementASN() (uint32, error) {
	if f.meas == nil {
		return 0, errNotConnected
	}
	return f.meas.asn, nil
}

// SetTransit enables or disables the measurement AS's transit link (the
// "no transit" experiment switch). Disabling withdraws the prefix from
// the global table; only IXP peers can then deliver traffic.
func (f *Fabric) SetTransit(enabled bool) error {
	if f.meas == nil {
		return errNotConnected
	}
	f.meas.transitOn = enabled
	if enabled {
		f.meas.transit.Establish()
	} else {
		f.meas.transit.Flap()
	}
	return nil
}

// transitUp reports whether the transit path is currently usable: the
// operator has it enabled and the BGP session is established.
func (f *Fabric) transitUp() bool {
	return f.meas != nil && f.meas.transitOn && f.meas.transit.State() == bgp.StateEstablished
}

// TransitFlaps reports how many times the transit session flapped.
//
//bsvet:allow deadcode oracle: TestSaturationFlapsTransit counts the flaps saturation causes
func (f *Fabric) TransitFlaps() (int, error) {
	if f.meas == nil {
		return 0, errNotConnected
	}
	return f.meas.transit.Flaps(), nil
}

// SourceTraffic is one second of traffic from one origin AS toward the
// measurement prefix.
type SourceTraffic struct {
	// AS is the origin AS of the senders.
	AS uint32
	// Bytes and Packets are the offered load for this second.
	Bytes   uint64
	Packets uint64
	// SrcPort and PacketSize describe the traffic for FlowSpec matching
	// (0 when unknown). Amplification attacks carry the vector's service
	// port and response packet size.
	SrcPort    uint16
	PacketSize int
}

// Handover is the outcome of delivering one second of traffic.
type Handover struct {
	// ViaTransitBytes arrived over the measurement AS's transit link.
	ViaTransitBytes   uint64
	ViaTransitPackets uint64
	// ViaPeering arrived across the peering LAN, keyed by handing-over
	// member AS.
	ViaPeeringBytes   map[uint32]uint64
	ViaPeeringPackets map[uint32]uint64
	// UnreachableBytes was offered by networks with no path (transit
	// down and no peering route).
	UnreachableBytes uint64
	// DroppedBytes exceeded the measurement port capacity.
	DroppedBytes uint64
	// MemberDroppedBytes were clipped at individual members' peering
	// ports before reaching the LAN (per handing-over member).
	MemberDroppedBytes map[uint32]uint64
	// FlowSpecFilteredBytes were discarded at the neighbors' edges by
	// FlowSpec rules before reaching the port.
	FlowSpecFilteredBytes uint64
	// Utilization is offered/capacity on the measurement port (can
	// exceed 1 before drops are applied).
	Utilization float64
	// TransitFlapped reports whether this second's saturation flapped
	// the transit BGP session.
	TransitFlapped bool
}

// PeeringBytesTotal sums the peering handover.
func (h *Handover) PeeringBytesTotal() uint64 {
	var total uint64
	for _, b := range h.ViaPeeringBytes {
		total += b
	}
	return total
}

// DeliveredBytes is everything that reached the measurement port and fit
// its capacity.
func (h *Handover) DeliveredBytes() uint64 {
	return h.ViaTransitBytes + h.PeeringBytesTotal() - h.DroppedBytes
}

// PeerCount reports how many member ASes handed over traffic.
func (h *Handover) PeerCount() int { return len(h.ViaPeeringBytes) }

// DeliverTo routes one second of traffic toward dst. FlowSpec rules
// covering dst discard matching traffic at the neighbors' edges before
// it reaches the measurement port; the zero dst matches no rule.
// Saturation above the flap threshold tears the transit session down
// for subsequent seconds (it re-establishes once offered load
// recedes), mirroring the interrupted VIP NTP attack.
func (f *Fabric) DeliverTo(dst netip.Addr, sources []SourceTraffic) (*Handover, error) {
	if f.meas == nil {
		return nil, errNotConnected
	}
	transitUp := f.transitUp()
	h := &Handover{
		ViaPeeringBytes:   make(map[uint32]uint64),
		ViaPeeringPackets: make(map[uint32]uint64),
	}
	for _, src := range sources {
		if dst.IsValid() && f.flowSpecDiscards(dst, src) {
			h.FlowSpecFilteredBytes += src.Bytes
			continue
		}
		member, isMember := f.members[src.AS]
		switch {
		case isMember && (!member.PrefersOwnTransit || !transitUp):
			// Peering path: the member has the RS route to our prefix.
			h.ViaPeeringBytes[src.AS] += src.Bytes
			h.ViaPeeringPackets[src.AS] += src.Packets
		case transitUp:
			h.ViaTransitBytes += src.Bytes
			h.ViaTransitPackets += src.Packets
		default:
			h.UnreachableBytes += src.Bytes
		}
	}
	// Each member's handover is bounded by its own peering port.
	for asn, bytes := range h.ViaPeeringBytes {
		capBytes := uint64(float64(f.members[asn].PortCapacity) / 8)
		if capBytes == 0 || bytes <= capBytes {
			continue
		}
		if h.MemberDroppedBytes == nil {
			h.MemberDroppedBytes = make(map[uint32]uint64)
		}
		h.MemberDroppedBytes[asn] = bytes - capBytes
		if pkts := h.ViaPeeringPackets[asn]; pkts > 0 {
			h.ViaPeeringPackets[asn] = pkts * capBytes / bytes
		}
		h.ViaPeeringBytes[asn] = capBytes
	}
	offered := h.ViaTransitBytes + h.PeeringBytesTotal()
	capacityBytes := float64(f.meas.portCapacity) / 8
	if capacityBytes > 0 {
		h.Utilization = float64(offered) / capacityBytes
	}
	if h.Utilization > 1 {
		h.DroppedBytes = offered - uint64(capacityBytes)
	}
	// Saturation may flap the transit session for the following seconds.
	if f.meas.transitOn {
		before := f.meas.transit.State()
		f.meas.transit.Tick(h.Utilization)
		h.TransitFlapped = before == bgp.StateEstablished && f.meas.transit.State() == bgp.StateIdle
	}
	metricTransitBytes.Add(h.ViaTransitBytes)
	metricPeeringBytes.Add(h.PeeringBytesTotal())
	metricUnreachableBytes.Add(h.UnreachableBytes)
	metricDroppedBytes.Add(h.DroppedBytes)
	metricFlowSpecBytes.Add(h.FlowSpecFilteredBytes)
	if h.TransitFlapped {
		metricTransitFlaps.Inc()
	}
	return h, nil
}

// PlatformExport converts the peering-LAN share of a handover into
// sampled IXP flow records — what the study's IPFIX vantage point sees.
// Transit traffic crosses a private link and is invisible to the
// platform capture, which is why peering-only traces underestimate
// attack sizes.
func (f *Fabric) PlatformExport(h *Handover, dst netip.Addr, dstPort uint16, ts time.Time) []flow.Record {
	if f.meas == nil {
		return nil
	}
	rate := f.cfg.PlatformSamplingRate
	var out []flow.Record
	asns := make([]uint32, 0, len(h.ViaPeeringBytes))
	for asn := range h.ViaPeeringBytes {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	for _, asn := range asns {
		bytes := h.ViaPeeringBytes[asn]
		pkts := h.ViaPeeringPackets[asn]
		if pkts == 0 {
			continue
		}
		// Systematic 1-in-N on the packet count; keep the expected value
		// by sampling the remainder probabilistically.
		sampledPkts := pkts / uint64(rate)
		if f.rand.Uint64N(uint64(rate)) < pkts%uint64(rate) {
			sampledPkts++
		}
		if sampledPkts == 0 {
			continue
		}
		avgSize := bytes / pkts
		out = append(out, flow.Record{
			Key: flow.Key{
				Src:      netutil.Addr4(asn<<8 | 1), // representative source in the member
				Dst:      dst,
				SrcPort:  dstPort,
				DstPort:  40000,
				Protocol: packet.IPProtoUDP,
			},
			Packets:      sampledPkts,
			Bytes:        sampledPkts * avgSize,
			Start:        ts,
			End:          ts.Add(time.Second),
			SrcAS:        asn,
			DstAS:        f.meas.asn,
			Direction:    flow.Ingress,
			SamplingRate: rate,
		})
	}
	metricExportRecords.Add(uint64(len(out)))
	return out
}
