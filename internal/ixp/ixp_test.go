package ixp

import (
	"net/netip"
	"testing"
	"time"

	"booterscope/internal/bgp"
	"booterscope/internal/netutil"
)

const (
	measASN = 64512
	prefix  = "203.0.113.0/24"
)

func newFabric(t *testing.T) *Fabric {
	t.Helper()
	f := New(Config{RouteServerASN: 65500, TransitASN: 174, PlatformSamplingRate: 100, Seed: 1})
	// 10 members: half prefer their own transit.
	for i := 0; i < 10; i++ {
		f.AddMember(uint32(1000+i), 100*netutil.Gbps, i%2 == 0)
	}
	if err := f.ConnectMeasurementAS(measASN, netip.MustParsePrefix(prefix), 10*netutil.Gbps); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestConnectAndAnnounce(t *testing.T) {
	f := newFabric(t)
	if f.Members() != 10 {
		t.Errorf("members = %d", f.Members())
	}
	asn, err := f.MeasurementASN()
	if err != nil || asn != measASN {
		t.Errorf("measurement ASN = %d, %v", asn, err)
	}
	// Every member's RIB must hold the announced /24 via peering.
	m, err := f.Member(1003)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := m.RIB.Lookup(netip.MustParseAddr("203.0.113.7"))
	if !ok || r.NextHopAS != measASN {
		t.Errorf("member route = %+v ok=%t", r, ok)
	}
	if !f.transitUp() {
		t.Error("transit should start up")
	}
	if _, err := f.Member(9999); err == nil {
		t.Error("unknown member lookup should fail")
	}
}

func TestNotConnectedErrors(t *testing.T) {
	f := New(Config{})
	if _, err := f.MeasurementASN(); err != errNotConnected {
		t.Errorf("err = %v", err)
	}
	if err := f.SetTransit(false); err != errNotConnected {
		t.Errorf("err = %v", err)
	}
	if _, err := f.DeliverTo(netip.Addr{}, nil); err != errNotConnected {
		t.Errorf("err = %v", err)
	}
	if _, err := f.TransitFlaps(); err != errNotConnected {
		t.Errorf("err = %v", err)
	}
}

func TestHandoverSplitTransitEnabled(t *testing.T) {
	f := newFabric(t)
	// Equal offered load from each member plus two non-members.
	var sources []SourceTraffic
	for i := 0; i < 10; i++ {
		sources = append(sources, SourceTraffic{AS: uint32(1000 + i), Bytes: 10_000_000, Packets: 20000})
	}
	sources = append(sources,
		SourceTraffic{AS: 7000, Bytes: 50_000_000, Packets: 100000},
		SourceTraffic{AS: 7001, Bytes: 50_000_000, Packets: 100000},
	)
	h, err := f.DeliverTo(netip.Addr{}, sources)
	if err != nil {
		t.Fatal(err)
	}
	// Members preferring their own transit (even ASNs) + non-members go
	// via transit: 5*10MB + 100MB = 150MB. Peering: 5*10MB = 50MB.
	if h.ViaTransitBytes != 150_000_000 {
		t.Errorf("transit bytes = %d", h.ViaTransitBytes)
	}
	if h.PeeringBytesTotal() != 50_000_000 {
		t.Errorf("peering bytes = %d", h.PeeringBytesTotal())
	}
	if h.PeerCount() != 5 {
		t.Errorf("peer count = %d", h.PeerCount())
	}
	if h.UnreachableBytes != 0 {
		t.Errorf("unreachable = %d", h.UnreachableBytes)
	}
	if h.DeliveredBytes() != 200_000_000 {
		t.Errorf("delivered = %d", h.DeliveredBytes())
	}
}

func TestHandoverNoTransit(t *testing.T) {
	f := newFabric(t)
	if err := f.SetTransit(false); err != nil {
		t.Fatal(err)
	}
	var sources []SourceTraffic
	for i := 0; i < 10; i++ {
		sources = append(sources, SourceTraffic{AS: uint32(1000 + i), Bytes: 10_000_000, Packets: 20000})
	}
	sources = append(sources, SourceTraffic{AS: 7000, Bytes: 100_000_000, Packets: 200000})
	h, err := f.DeliverTo(netip.Addr{}, sources)
	if err != nil {
		t.Fatal(err)
	}
	// All members now hand over via peering; non-members are unreachable.
	if h.PeerCount() != 10 {
		t.Errorf("peer count = %d, want all 10 members", h.PeerCount())
	}
	if h.ViaTransitBytes != 0 {
		t.Errorf("transit bytes = %d", h.ViaTransitBytes)
	}
	if h.UnreachableBytes != 100_000_000 {
		t.Errorf("unreachable = %d", h.UnreachableBytes)
	}
	// The paper's observation: no-transit raises peer count but lowers
	// delivered volume.
	if h.DeliveredBytes() >= 200_000_000 {
		t.Errorf("delivered = %d, should drop without transit", h.DeliveredBytes())
	}
}

func TestNoTransitIncreasesPeersDecreasesVolume(t *testing.T) {
	run := func(transit bool) (peers int, delivered uint64) {
		f := newFabric(t)
		if err := f.SetTransit(transit); err != nil {
			t.Fatal(err)
		}
		var sources []SourceTraffic
		for i := 0; i < 10; i++ {
			sources = append(sources, SourceTraffic{AS: uint32(1000 + i), Bytes: 5_000_000, Packets: 10000})
		}
		for i := 0; i < 40; i++ {
			sources = append(sources, SourceTraffic{AS: uint32(7000 + i), Bytes: 5_000_000, Packets: 10000})
		}
		h, err := f.DeliverTo(netip.Addr{}, sources)
		if err != nil {
			t.Fatal(err)
		}
		return h.PeerCount(), h.DeliveredBytes()
	}
	peersOn, volOn := run(true)
	peersOff, volOff := run(false)
	if peersOff <= peersOn {
		t.Errorf("peers: transit on %d, off %d — off should be larger", peersOn, peersOff)
	}
	if volOff >= volOn {
		t.Errorf("volume: transit on %d, off %d — off should be smaller", volOn, volOff)
	}
}

func TestSaturationFlapsTransit(t *testing.T) {
	f := New(Config{
		RouteServerASN: 65500, TransitASN: 174, PlatformSamplingRate: 100, Seed: 1,
		TransitHoldTime: 3, TransitReconnectTime: 2,
	})
	for i := 0; i < 10; i++ {
		f.AddMember(uint32(1000+i), 100*netutil.Gbps, i%2 == 0)
	}
	if err := f.ConnectMeasurementAS(measASN, netip.MustParsePrefix(prefix), 10*netutil.Gbps); err != nil {
		t.Fatal(err)
	}
	// 20 Gbps offered into a 10 Gbps port: 2.5e9 bytes/sec.
	big := []SourceTraffic{{AS: 7000, Bytes: 2_500_000_000, Packets: 5_000_000}}
	// The session survives the first HoldTime-1 saturated seconds.
	for i := 0; i < 2; i++ {
		h, err := f.DeliverTo(netip.Addr{}, big)
		if err != nil {
			t.Fatal(err)
		}
		if h.Utilization < 1.9 {
			t.Errorf("utilization = %v", h.Utilization)
		}
		if h.DroppedBytes == 0 {
			t.Error("saturated port should drop")
		}
		if h.TransitFlapped {
			t.Errorf("second %d: flapped before hold timer expiry", i)
		}
	}
	h, err := f.DeliverTo(netip.Addr{}, big)
	if err != nil {
		t.Fatal(err)
	}
	if !h.TransitFlapped {
		t.Error("transit session should flap after sustained saturation")
	}
	if f.transitUp() {
		t.Error("transit should be down after flap")
	}
	// Transit down: non-member traffic unreachable, utilization recedes.
	h2, err := f.DeliverTo(netip.Addr{}, big)
	if err != nil {
		t.Fatal(err)
	}
	if h2.ViaTransitBytes != 0 || h2.UnreachableBytes == 0 {
		t.Errorf("post-flap handover: transit=%d unreachable=%d", h2.ViaTransitBytes, h2.UnreachableBytes)
	}
	if _, err := f.DeliverTo(netip.Addr{}, big); err != nil { // second calm tick: reconnect
		t.Fatal(err)
	}
	if !f.transitUp() {
		t.Error("transit should re-establish after the reconnect time")
	}
	flaps, _ := f.TransitFlaps()
	if flaps != 1 {
		t.Errorf("flaps = %d", flaps)
	}
}

func TestDeliverWithinCapacityNoDrops(t *testing.T) {
	f := newFabric(t)
	h, err := f.DeliverTo(netip.Addr{}, []SourceTraffic{{AS: 7000, Bytes: 100_000_000, Packets: 200000}})
	if err != nil {
		t.Fatal(err)
	}
	if h.DroppedBytes != 0 || h.TransitFlapped {
		t.Errorf("drops=%d flapped=%t", h.DroppedBytes, h.TransitFlapped)
	}
	if h.Utilization <= 0 || h.Utilization >= 1 {
		t.Errorf("utilization = %v", h.Utilization)
	}
}

func TestPlatformExportSamplesPeeringOnly(t *testing.T) {
	f := newFabric(t)
	var sources []SourceTraffic
	for i := 0; i < 10; i++ {
		sources = append(sources, SourceTraffic{AS: uint32(1000 + i), Bytes: 48_600_000, Packets: 100_000})
	}
	sources = append(sources, SourceTraffic{AS: 7000, Bytes: 486_000_000, Packets: 1_000_000})
	h, err := f.DeliverTo(netip.Addr{}, sources)
	if err != nil {
		t.Fatal(err)
	}
	dst := netip.MustParseAddr("203.0.113.7")
	ts := time.Date(2018, 12, 1, 0, 0, 0, 0, time.UTC)
	recs := f.PlatformExport(h, dst, 123, ts)
	if len(recs) == 0 {
		t.Fatal("no platform records")
	}
	var scaled uint64
	for _, r := range recs {
		if r.SamplingRate != 100 {
			t.Errorf("sampling rate = %d", r.SamplingRate)
		}
		if r.Dst != dst || r.SrcPort != 123 {
			t.Errorf("record key = %+v", r.Key)
		}
		if r.DstAS != measASN {
			t.Errorf("dst AS = %d", r.DstAS)
		}
		// Only peering members appear.
		if r.SrcAS < 1000 || r.SrcAS > 1009 {
			t.Errorf("unexpected source AS %d (transit traffic must be invisible)", r.SrcAS)
		}
		scaled += r.ScaledPackets()
	}
	// Scaled packet estimate should approximate the true peering packets
	// (5 odd members * 100k = 500k).
	if scaled < 300_000 || scaled > 700_000 {
		t.Errorf("scaled packets = %d, want ~500k", scaled)
	}
}

func TestPlatformExportDeterministic(t *testing.T) {
	build := func() int {
		f := newFabric(t)
		h, err := f.DeliverTo(netip.Addr{}, []SourceTraffic{{AS: 1001, Bytes: 4860, Packets: 10}})
		if err != nil {
			t.Fatal(err)
		}
		return len(f.PlatformExport(h, netip.MustParseAddr("203.0.113.7"), 123, time.Unix(0, 0)))
	}
	if build() != build() {
		t.Error("platform export not deterministic")
	}
}

func BenchmarkDeliver(b *testing.B) {
	f := New(Config{RouteServerASN: 65500, TransitASN: 174, Seed: 1})
	for i := 0; i < 100; i++ {
		f.AddMember(uint32(1000+i), 100*netutil.Gbps, i%2 == 0)
	}
	if err := f.ConnectMeasurementAS(measASN, netip.MustParsePrefix(prefix), 10*netutil.Gbps); err != nil {
		b.Fatal(err)
	}
	sources := make([]SourceTraffic, 300)
	for i := range sources {
		sources[i] = SourceTraffic{AS: uint32(1000 + i%150), Bytes: 100_000, Packets: 200}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.DeliverTo(netip.Addr{}, sources); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBlackholeLifecycle(t *testing.T) {
	f := newFabric(t)
	victim := netip.MustParseAddr("203.0.113.50")
	if f.IsBlackholed(victim) {
		t.Fatal("fresh fabric reports blackholed address")
	}
	if err := f.AnnounceBlackhole(victim); err != nil {
		t.Fatal(err)
	}
	if !f.IsBlackholed(victim) {
		t.Error("blackhole announcement not effective")
	}
	// Members see the tagged /32 in their RIBs.
	m, err := f.Member(1000)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := m.RIB.Lookup(victim)
	if !ok {
		t.Fatal("member missing blackhole route")
	}
	if r.Prefix.Bits() != 32 {
		t.Errorf("blackhole route prefix = %v, want /32", r.Prefix)
	}
	if !r.HasCommunity(bgp.BlackholeCommunity) {
		t.Error("blackhole route missing the 65535:666 community")
	}
	// Withdrawal restores normal routing: the covering /24 remains.
	if err := f.WithdrawBlackhole(victim); err != nil {
		t.Fatal(err)
	}
	if f.IsBlackholed(victim) {
		t.Error("withdrawal not effective")
	}
	r, ok = m.RIB.Lookup(victim)
	if !ok || r.Prefix.Bits() != 24 {
		t.Errorf("post-withdrawal route = %+v ok=%t, want the /24", r, ok)
	}
}

func TestBlackholeValidation(t *testing.T) {
	f := newFabric(t)
	if err := f.AnnounceBlackhole(netip.MustParseAddr("8.8.8.8")); err == nil {
		t.Error("blackholing an address outside the prefix should fail")
	}
	unconnected := New(Config{})
	if err := unconnected.AnnounceBlackhole(netip.MustParseAddr("203.0.113.1")); err != errNotConnected {
		t.Errorf("err = %v", err)
	}
	if err := unconnected.WithdrawBlackhole(netip.MustParseAddr("203.0.113.1")); err != errNotConnected {
		t.Errorf("err = %v", err)
	}
}

func TestFlowSpecFiltersAttackOnly(t *testing.T) {
	f := newFabric(t)
	victim := netip.MustParseAddr("203.0.113.60")
	rule := bgp.FlowSpecRule{
		Dst:          netip.PrefixFrom(victim, 32),
		Protocol:     17,
		SrcPort:      123,
		MinPacketLen: 200,
	}
	if err := f.AnnounceFlowSpec(rule); err != nil {
		t.Fatal(err)
	}
	if f.FlowSpecRules() != 1 {
		t.Fatalf("rules = %d", f.FlowSpecRules())
	}
	attack := SourceTraffic{AS: 7000, Bytes: 100_000_000, Packets: 205_000, SrcPort: 123, PacketSize: 488}
	benign := SourceTraffic{AS: 7001, Bytes: 5_000_000, Packets: 6_000, SrcPort: 443, PacketSize: 800}
	h, err := f.DeliverTo(victim, []SourceTraffic{attack, benign})
	if err != nil {
		t.Fatal(err)
	}
	if h.FlowSpecFilteredBytes != 100_000_000 {
		t.Errorf("filtered = %d, want the attack bytes", h.FlowSpecFilteredBytes)
	}
	if h.DeliveredBytes() != 5_000_000 {
		t.Errorf("delivered = %d, want only the benign bytes", h.DeliveredBytes())
	}

	// A different victim is unaffected.
	other := netip.MustParseAddr("203.0.113.61")
	h2, err := f.DeliverTo(other, []SourceTraffic{attack})
	if err != nil {
		t.Fatal(err)
	}
	if h2.FlowSpecFilteredBytes != 0 {
		t.Error("rule leaked to another destination")
	}
}

func TestFlowSpecBenignNTPPasses(t *testing.T) {
	// The surgical property: small benign NTP packets toward the victim
	// survive the >=200-byte rule.
	f := newFabric(t)
	victim := netip.MustParseAddr("203.0.113.60")
	if err := f.AnnounceFlowSpec(bgp.FlowSpecRule{
		Dst: netip.PrefixFrom(victim, 32), Protocol: 17, SrcPort: 123, MinPacketLen: 200,
	}); err != nil {
		t.Fatal(err)
	}
	benignNTP := SourceTraffic{AS: 7000, Bytes: 76_000, Packets: 1000, SrcPort: 123, PacketSize: 76}
	h, err := f.DeliverTo(victim, []SourceTraffic{benignNTP})
	if err != nil {
		t.Fatal(err)
	}
	if h.FlowSpecFilteredBytes != 0 {
		t.Error("benign NTP filtered")
	}
}

func TestFlowSpecValidation(t *testing.T) {
	f := newFabric(t)
	if err := f.AnnounceFlowSpec(bgp.FlowSpecRule{Dst: netip.MustParsePrefix("8.8.8.0/24")}); err == nil {
		t.Error("rule outside the measurement prefix accepted")
	}
	unconnected := New(Config{})
	if err := unconnected.AnnounceFlowSpec(bgp.FlowSpecRule{}); err != errNotConnected {
		t.Errorf("err = %v", err)
	}
	if unconnected.FlowSpecRules() != 0 {
		t.Error("rules on unconnected fabric")
	}
}

func TestDeliverWithoutDstIgnoresFlowSpec(t *testing.T) {
	f := newFabric(t)
	if err := f.AnnounceFlowSpec(bgp.FlowSpecRule{
		Dst: netip.MustParsePrefix("203.0.113.0/24"), Protocol: 17,
	}); err != nil {
		t.Fatal(err)
	}
	attack := SourceTraffic{AS: 7000, Bytes: 1000, Packets: 2, SrcPort: 123, PacketSize: 488}
	h, err := f.DeliverTo(netip.Addr{}, []SourceTraffic{attack})
	if err != nil {
		t.Fatal(err)
	}
	if h.FlowSpecFilteredBytes != 0 {
		t.Error("destination-less delivery applied FlowSpec")
	}
}

func TestMemberPortCapacityClamp(t *testing.T) {
	f := New(Config{RouteServerASN: 65500, TransitASN: 174, PlatformSamplingRate: 100, Seed: 1})
	// One small member (1 Gbps port) preferring peering, one large.
	f.AddMember(1000, 1*netutil.Gbps, false)
	f.AddMember(1001, 100*netutil.Gbps, false)
	if err := f.ConnectMeasurementAS(measASN, netip.MustParsePrefix(prefix), 10*netutil.Gbps); err != nil {
		t.Fatal(err)
	}
	// The small member offers 2 Gbps worth of bytes in one second.
	h, err := f.DeliverTo(netip.Addr{}, []SourceTraffic{
		{AS: 1000, Bytes: 250_000_000, Packets: 500_000},
		{AS: 1001, Bytes: 250_000_000, Packets: 500_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	capBytes := uint64(1e9 / 8)
	if h.ViaPeeringBytes[1000] != capBytes {
		t.Errorf("small member handed over %d bytes, want clamp at %d", h.ViaPeeringBytes[1000], capBytes)
	}
	if h.MemberDroppedBytes[1000] != 250_000_000-capBytes {
		t.Errorf("member drop = %d", h.MemberDroppedBytes[1000])
	}
	if h.ViaPeeringBytes[1001] != 250_000_000 {
		t.Errorf("large member clipped: %d", h.ViaPeeringBytes[1001])
	}
	if h.MemberDroppedBytes[1001] != 0 {
		t.Errorf("large member dropped %d", h.MemberDroppedBytes[1001])
	}
	// Packets scale proportionally.
	if got := h.ViaPeeringPackets[1000]; got >= 500_000 || got == 0 {
		t.Errorf("small member packets = %d", got)
	}
}
