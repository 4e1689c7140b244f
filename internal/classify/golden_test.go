package classify

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/packet"
	"booterscope/internal/telemetry"
	"booterscope/internal/telemetry/eventlog"
)

// genGoldenStream is the fixed stream behind TestMonitorRunFrozen:
// sixteen victims whose amplifier pools run from four addresses (a bin
// that never leaves the inline source set) to ninety-four (one that
// spills, and at MaxSourcesPerBin 40 overflows), a clock that mostly
// advances, leaps (evictions, attacks closing) and straggles (bins
// opened behind the horizon), long enough for re-alerts, with benign
// and non-reflection records mixed in. Never edit it: the digests below
// were computed on the commit before the monitor's bookkeeping moved to
// per-minute work.
func genGoldenStream() []flow.Record {
	rng := rand.New(rand.NewSource(20181219))
	base := time.Date(2018, 12, 19, 0, 0, 0, 0, time.UTC)
	recs := make([]flow.Record, 0, 60_000)
	clock := 0 // seconds
	for i := 0; i < cap(recs); i++ {
		k := rng.Intn(4000)
		switch {
		case k == 0:
			clock += 600 + rng.Intn(1800) // leap: evictions, attacks closing
		case k < 160:
			clock++
		}
		at := clock
		if k >= 3880 { // straggler behind the clock, often behind the horizon
			at = max(clock-rng.Intn(900), 0)
		}
		start := base.Add(time.Duration(at)*time.Second + time.Duration(rng.Intn(1e9)))
		v := rng.Intn(16)
		s := rng.Intn(4 + 6*v)
		pkts := uint64(1 + rng.Intn(3000))
		rec := flow.Record{
			Key: flow.Key{
				Src:      netip.AddrFrom4([4]byte{198, 51, byte(v), byte(s)}),
				Dst:      netip.AddrFrom4([4]byte{203, 0, 113, byte(v)}),
				SrcPort:  NTPPort,
				DstPort:  uint16(1024 + rng.Intn(5000)),
				Protocol: packet.IPProtoUDP,
			},
			Packets:      pkts,
			Bytes:        pkts * 468,
			Start:        start,
			End:          start.Add(time.Second),
			SamplingRate: uint32(1 + 9*rng.Intn(2)),
		}
		switch rng.Intn(12) {
		case 0: // benign NTP, stamped ahead: must not move the clock
			rec.Bytes = rec.Packets * 76
			rec.Start = start.Add(48 * time.Hour)
		case 1: // DNS-shaped: a detection, not a match
			rec.SrcPort = 53
		case 2:
			rec.SrcPort = 443
		case 3: // IPv6 victim and amplifier
			rec.Src = netip.AddrFrom16([16]byte{0x20, 0x01, 0xd, 0xb8, 14: byte(v), 15: byte(s)})
			rec.Dst = netip.AddrFrom16([16]byte{0x20, 0x01, 0xd, 0xb8, 1, 15: byte(v)})
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestMonitorRunFrozen pins everything a serial monitor run over the
// fixed stream can show a consumer — alerts, attack log, accounting,
// the telemetry counters, the lifecycle event stream in order, and the
// snapshot — to digests taken before the per-minute rewrite.
func TestMonitorRunFrozen(t *testing.T) {
	const (
		goldenAlerts   = "d445b61a191fa983da6555fdfc91feb58387172d6794090f479c8af261d4eca0"
		goldenLog      = "7adf907bc770319742c302e169c59160920d2e017871ca996b6f07d6740ebd83"
		goldenEvents   = "c27ad7a38905f8e8573fd009bca52f60cc400be42516da7eb92416b0a1406601"
		goldenSnapshot = "30c10341b340ae52b57e4bb7812af48db4417b28f91a84e74a30e7fa865d6552"
		goldenMetrics  = "74ba89c4465c718f44c08d51008f3b7f8906a3df3eb72252ac89fd5a7e272a3b"
	)
	m := NewMonitor(Config{MinRateBps: 400_000, MinSources: 5})
	m.Retention = 5 * time.Minute
	m.ReAlertAfter = 10 * time.Minute
	m.MaxSourcesPerBin = 40
	m.TrackAttackLog = true
	m.Events = eventlog.New(1 << 17)
	reg := telemetry.NewRegistry()
	m.RegisterTelemetry(reg)

	var alerts []Alert
	for _, r := range genGoldenStream() {
		if a := m.Add(&r); a != nil {
			alerts = append(alerts, *a)
		}
	}
	snap := m.Snapshot()

	// The fixture must keep exercising what the digests are for.
	st := m.Stats()
	realerts := map[netip.Addr]int{}
	for _, a := range alerts {
		realerts[a.Victim]++
	}
	var realerted, spilled, small bool
	for _, n := range realerts {
		realerted = realerted || n > 1
	}
	for _, b := range snap.Bins {
		spilled = spilled || len(b.Sources) > 12
		small = small || len(b.Sources) <= 12
	}
	if st.EvictedBins == 0 || st.SourceOverflows == 0 || !realerted || !spilled || !small || len(snap.Attacks) == 0 {
		t.Fatalf("fixture lost coverage: stats %+v, re-alerted %v, spilled bin %v, small bin %v, %d open attacks",
			st, realerted, spilled, small, len(snap.Attacks))
	}
	if em := m.Events.Emitted(); em > uint64(m.Events.Cap()) {
		t.Fatalf("event ring wrapped: %d events, capacity %d", em, m.Events.Cap())
	}

	type ev struct {
		Kind   string
		Attack uint64
		Attrs  []eventlog.Attr
	}
	var events []ev
	for _, e := range m.Events.Snapshot() {
		events = append(events, ev{e.Kind, e.AttackID, e.Attrs})
	}
	metrics := map[string]any{
		"stats":     st,
		"health":    m.Health(),
		"occupancy": reg.Gauge("classify_monitor_active_minute_bins", "").Value(),
		"detected":  m.m.detections.Snapshot(),
	}
	for _, c := range []struct {
		name, want string
		v          any
	}{
		{"alerts", goldenAlerts, alerts},
		{"attack log", goldenLog, m.AttackLog()},
		{"events", goldenEvents, events},
		{"snapshot", goldenSnapshot, snap},
		{"metrics", goldenMetrics, metrics},
	} {
		b, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != c.want {
			t.Errorf("%s changed: %d bytes of JSON, sha256 %s, want %s", c.name, len(b), got, c.want)
		}
	}
}
