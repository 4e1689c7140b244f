package classify

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/packet"
	"booterscope/internal/pipe"
)

// runFanOut drives recs through sm's fan-out in 512-record row batches
// and closes it, so every shard has joined when it returns.
func runFanOut(t *testing.T, sm *ShardedMonitor, recs []flow.Record) {
	t.Helper()
	f := sm.FanOut()
	for off := 0; off < len(recs); off += 512 {
		b := pipe.Wrap(append([]flow.Record(nil), recs[off:min(off+512, len(recs))]...))
		err := f.Process(b)
		b.Release()
		if err != nil {
			f.Close()
			t.Fatalf("pipeline: %v", err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
}

// genMonitorStream builds an adversarial record stream for the
// monitor equivalence property: many victims, bursty rates that cross
// the (lowered) thresholds, out-of-order timestamps, re-alert gaps,
// and benign records — including benign ones stamped far in the
// future, which must NOT advance the eviction clock (the serial
// monitor's clock only moves on filter-matched records; a sharded run
// with an unfiltered watermark would evict early and diverge).
func genMonitorStream(seed int64, n int) []flow.Record {
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2018, 12, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]flow.Record, 0, n)
	clock := 0 // minutes, mostly advancing with occasional jumps back
	for i := 0; i < n; i++ {
		minute := clock
		switch rng.Intn(100) {
		case 0:
			clock += 10 + rng.Intn(20) // leap forward: forces evictions
			minute = clock
		case 1, 2, 3, 4, 5:
			clock++
			minute = clock
		case 6, 7, 8, 9:
			minute = clock - rng.Intn(12) // stragglers behind the watermark
			if minute < 0 {
				minute = 0
			}
		}
		start := base.Add(time.Duration(minute)*time.Minute + time.Duration(rng.Intn(60))*time.Second)
		dst := netip.AddrFrom4([4]byte{203, 0, 113, byte(rng.Intn(8))})
		src := netip.AddrFrom4([4]byte{198, 51, 100, byte(rng.Intn(12))})
		pkts := uint64(1 + rng.Intn(2000))
		rec := flow.Record{
			Key: flow.Key{
				Src: src, Dst: dst,
				SrcPort: NTPPort, DstPort: uint16(1024 + rng.Intn(5000)),
				Protocol: packet.IPProtoUDP,
			},
			Packets:      pkts,
			Bytes:        pkts * 480,
			Start:        start,
			End:          start.Add(time.Second),
			SamplingRate: 1,
		}
		switch rng.Intn(6) {
		case 0: // benign NTP (small packets), stamped in the future
			rec.Bytes = rec.Packets * 76
			rec.Start = start.Add(72 * time.Hour)
		case 1: // non-NTP
			rec.SrcPort = 443
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestShardedMonitorMatchesSerial is the satellite property test: a
// sharded monitor driven through the pipeline fan-out must reproduce
// the serial monitor bit-for-bit — alerts (content and global order),
// eviction counts, victim-table occupancy, and live alert markers —
// at every shard count.
func TestShardedMonitorMatchesSerial(t *testing.T) {
	cfg := Config{MinRateBps: 50_000, MinSources: 3}
	tune := func(m *Monitor) {
		m.Retention = 5 * time.Minute
		m.ReAlertAfter = 10 * time.Minute
	}
	for _, seed := range []int64{1, 2, 3} {
		recs := genMonitorStream(seed, 20_000)
		serial := NewMonitor(cfg)
		tune(serial)
		var wantAlerts []Alert
		for i := range recs {
			if al := serial.Add(&recs[i]); al != nil {
				wantAlerts = append(wantAlerts, *al)
			}
		}
		if len(wantAlerts) == 0 || serial.Stats().EvictedBins == 0 {
			t.Fatalf("seed %d: degenerate stream (%d alerts, %d evictions) — property not exercised",
				seed, len(wantAlerts), serial.Stats().EvictedBins)
		}
		for _, shards := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("seed=%d/shards=%d", seed, shards), func(t *testing.T) {
				sm := NewShardedMonitor(cfg, shards)
				for _, m := range sm.Monitors() {
					tune(m)
				}
				runFanOut(t, sm, recs)
				gotAlerts := sm.Alerts()
				if len(gotAlerts) != len(wantAlerts) || !reflect.DeepEqual(gotAlerts, wantAlerts) {
					t.Fatalf("alerts diverge: got %d, want %d\ngot  = %v\nwant = %v",
						len(gotAlerts), len(wantAlerts), gotAlerts, wantAlerts)
				}
				if got, want := sm.Stats(), serial.Stats(); got != want {
					t.Fatalf("stats diverge:\ngot  = %+v\nwant = %+v", got, want)
				}
				gh, wh := sm.Health(), serial.Health()
				if gh.ActiveMinutes != wh.ActiveMinutes {
					t.Fatalf("occupancy diverges: got %d bins, want %d", gh.ActiveMinutes, wh.ActiveMinutes)
				}
				if gh.ActiveAlerts != wh.ActiveAlerts {
					t.Fatalf("live alert markers diverge: got %d, want %d", gh.ActiveAlerts, wh.ActiveAlerts)
				}
			})
		}
	}
}

// TestAttackCounterMergeMatchesSerial pins the Figure 5 counter's
// shard merge against a serial pass over the same stream.
func TestAttackCounterMergeMatchesSerial(t *testing.T) {
	cfg := Config{MinRateBps: 50_000, MinSources: 3}
	recs := genMonitorStream(7, 20_000)
	serial := NewAttackCounter(cfg)
	for i := range recs {
		serial.Add(&recs[i])
	}
	for _, shards := range []int{2, 5} {
		parts := make([]*AttackCounter, shards)
		for i := range parts {
			parts[i] = NewAttackCounter(cfg)
		}
		for i := range recs {
			parts[pipe.KeyDst(&recs[i])%uint64(shards)].Add(&recs[i])
		}
		merged := NewAttackCounter(cfg)
		for _, p := range parts {
			merged.Merge(p)
		}
		if !reflect.DeepEqual(merged.Series(), serial.Series()) {
			t.Fatalf("shards=%d: merged series diverges from serial", shards)
		}
	}
}

// TestClassifierMergeMatchesSerial pins the victim-summary merge.
func TestClassifierMergeMatchesSerial(t *testing.T) {
	cfg := Config{}
	recs := genMonitorStream(13, 10_000)
	serial := New(cfg)
	for i := range recs {
		serial.Add(&recs[i])
	}
	parts := []*Classifier{New(cfg), New(cfg), New(cfg)}
	for i := range recs {
		parts[pipe.KeyDst(&recs[i])%3].Add(&recs[i])
	}
	merged := New(cfg)
	for _, p := range parts {
		merged.Merge(p)
	}
	if !reflect.DeepEqual(merged.Victims(), serial.Victims()) {
		t.Fatal("merged victims diverge from serial")
	}
	if merged.FilterStats() != serial.FilterStats() {
		t.Fatalf("merged filter stats %+v != serial %+v", merged.FilterStats(), serial.FilterStats())
	}
}
