package service

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"booterscope/internal/classify"
	"booterscope/internal/flow"
	"booterscope/internal/packet"
	"booterscope/internal/pipe"
)

// TestMonitorCheckpointFrozen pins the checkpoint bytes of a fixed
// sharded monitor run — one that has evicted bins, closed and re-opened
// attacks, re-alerted, and holds source sets on both sides of the
// inline/spilled boundary and at the per-bin cap — to a digest taken
// before the monitor's clock, eviction index and source sets were
// rewritten. TestCheckpointBytesFrozen pins the codec over a
// hand-built snapshot; this pins what the monitor puts in one.
func TestMonitorCheckpointFrozen(t *testing.T) {
	const golden = "ef52b392e0ebd13bc622bb703af60d2565a7cf0347e35090c8eebcc06318f6a9"
	cfg := classify.Config{MinRateBps: 400_000, MinSources: 5}
	sm := classify.NewShardedMonitor(cfg, 3)
	for _, m := range sm.Monitors() {
		m.Retention = 5 * time.Minute
		m.ReAlertAfter = 10 * time.Minute
		m.MaxSourcesPerBin = 40
	}
	f := sm.FanOut()

	rng := rand.New(rand.NewSource(20181220))
	base := time.Date(2018, 12, 20, 0, 0, 0, 0, time.UTC)
	clock := 0 // seconds
	b := pipe.NewColsBatch()
	for i := 0; i < 50_000; i++ {
		k := rng.Intn(4000)
		if i >= 45_000 {
			k = 2000 // the clock stops: the last bins fill to the source cap
		}
		switch {
		case k == 0:
			clock += 600 + rng.Intn(1800)
		case k < 160:
			clock++
		}
		at := clock
		if k >= 3880 {
			at = max(clock-rng.Intn(900), 0)
		}
		start := base.Add(time.Duration(at)*time.Second + time.Duration(rng.Intn(1e9)))
		v := rng.Intn(16)
		pkts := uint64(1 + rng.Intn(3000))
		rec := flow.Record{
			Key: flow.Key{
				Src:      netip.AddrFrom4([4]byte{198, 51, byte(v), byte(rng.Intn(4 + 6*v))}),
				Dst:      netip.AddrFrom4([4]byte{203, 0, 113, byte(v)}),
				SrcPort:  classify.NTPPort,
				DstPort:  uint16(1024 + rng.Intn(5000)),
				Protocol: packet.IPProtoUDP,
			},
			Packets:      pkts,
			Bytes:        pkts * 468,
			Start:        start,
			End:          start.Add(time.Second),
			SamplingRate: 1,
		}
		if rng.Intn(10) == 0 {
			rec.SrcPort = 53
		}
		b.Cols.AppendRecord(&rec)
		if b.Len() == 700 {
			if err := f.Process(b); err != nil {
				t.Fatal(err)
			}
			b.Release()
			b = pipe.NewColsBatch()
		}
	}
	if err := f.Process(b); err != nil {
		t.Fatal(err)
	}
	b.Release()

	var enc []byte
	var snap *classify.MonitorSnapshot
	var alerts int
	if err := f.Barrier(func() error {
		sm.AdvanceAll(f.Watermark())
		snap = sm.Snapshot()
		enc = EncodeCheckpoint(&Checkpoint{
			Watermark: f.Watermark(), Seq: f.Seq(), StoreDurable: 50_000,
			Config: sm.Config(), Monitor: snap,
		})
		alerts = len(sm.Alerts())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var spilled, small, capped bool
	for _, bin := range snap.Bins {
		spilled = spilled || len(bin.Sources) > 12
		small = small || len(bin.Sources) <= 12
		capped = capped || bin.SourceOverflow > 0
	}
	if snap.Stats.EvictedBins == 0 || alerts <= 16 /* victims: more means a re-alert */ || !spilled || !small || !capped ||
		len(snap.Alerted) == 0 || len(snap.Attacks) == 0 {
		t.Fatalf("fixture lost coverage: stats %+v, %d alerts, spilled %v, small %v, capped %v, %d markers, %d open attacks",
			snap.Stats, alerts, spilled, small, capped, len(snap.Alerted), len(snap.Attacks))
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != golden {
		t.Fatalf("monitor checkpoint changed: %d bytes, sha256 %s, want %s", len(enc), got, golden)
	}
}
