package classify

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/packet"
	"booterscope/internal/pipe"
	"booterscope/internal/telemetry/eventlog"
)

// refVictims are the victims of genRefStream, all canonical: IPv4
// addresses, two of them sharing a memo way (the low address byte),
// IPv6 ones, and the low IPv6 addresses that sort before IPv4
// bytewise but after it by netip.Addr.Compare.
var refVictims = []netip.Addr{
	netip.MustParseAddr("203.0.113.0"),
	netip.MustParseAddr("203.0.113.8"),
	netip.MustParseAddr("203.0.113.2"),
	netip.MustParseAddr("198.18.0.3"),
	netip.MustParseAddr("203.0.113.4"),
	netip.MustParseAddr("2001:db8::5"),
	netip.MustParseAddr("2001:db8::6"),
	netip.MustParseAddr("::"),
	netip.MustParseAddr("::7"),
}

// genRefStream builds the stream TestMonitorMatchesReference feeds
// both monitors: bursts of up to 70 sources per victim (spilling past
// the inline dozen, IPv4 and IPv6 amplifiers), a clock that mostly
// advances one second at a time and leaps now and then, victims that
// fall quiet for four minutes in every twelve, one record in ten up to
// retention+4 minutes late (behind the horizon, often on a quiet
// victim), plus benign NTP stamped days ahead, DNS-shaped detections
// and non-reflection traffic.
func genRefStream(rng *rand.Rand, n int) []flow.Record {
	base := time.Date(2018, 12, 19, 0, 0, 0, 0, time.UTC)
	recs := make([]flow.Record, 0, n)
	clock := 0
	for i := 0; i < n; i++ {
		switch k := rng.Intn(1000); {
		case k == 0:
			clock += 300 + rng.Intn(1500)
		case k < 150:
			clock++
		}
		at := clock
		v := rng.Intn(len(refVictims))
		if rng.Intn(10) == 0 {
			at = max(clock-rng.Intn(60*14), 0)
		} else {
			for (clock/240+v)%3 == 0 {
				v = rng.Intn(len(refVictims))
			}
		}
		s := rng.Intn(3 + 8*v)
		src := netip.AddrFrom4([4]byte{198, 51, byte(v), byte(s)})
		if rng.Intn(5) == 0 {
			src = netip.AddrFrom16([16]byte{0x20, 0x01, 0xd, 0xb8, 2, 14: byte(v), 15: byte(s)})
		}
		start := base.Add(time.Duration(at)*time.Second + time.Duration(rng.Intn(1e9)))
		pkts := uint64(1 + rng.Intn(3000))
		r := flow.Record{
			Key: flow.Key{
				Src:      src,
				Dst:      refVictims[v],
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
		switch rng.Intn(16) {
		case 0:
			r.Bytes = r.Packets * 76
			r.Start = start.Add(48 * time.Hour)
		case 1:
			r.SrcPort = 53
		case 2:
			r.SrcPort = 443
		}
		recs = append(recs, r)
	}
	return recs
}

// refRun is one monitor configuration of TestMonitorMatchesReference.
type refRun struct {
	cfg                     Config
	retention, reAlertAfter time.Duration
	maxMinutes, maxSources  int
	trackLog, record        bool
	// shards is 0 for a serial Monitor, else the sharded monitor's
	// shard count.
	shards int
}

func (r refRun) String() string {
	return fmt.Sprintf("%+v", struct {
		Cfg                    Config
		Retention, ReAlert     time.Duration
		MaxMinutes, MaxSources int
		Log, Recorder          bool
		Shards                 int
	}{r.cfg, r.retention, r.reAlertAfter, r.maxMinutes, r.maxSources, r.trackLog, r.record, r.shards})
}

// drawRefRun picks a configuration. Small caps make the MaxMinutes
// refusal and the MaxSourcesPerBin overflow fire; a sharded run keeps
// the default MaxMinutes unless it has one shard, because the cap is
// per shard there (ShardedMonitor's one documented divergence).
func drawRefRun(rng *rand.Rand) refRun {
	r := refRun{
		cfg:          Config{MinRateBps: []float64{50_000, 400_000, 2e6}[rng.Intn(3)], MinSources: []int{3, 5, 12}[rng.Intn(3)]},
		retention:    time.Duration(3+rng.Intn(5)) * time.Minute,
		reAlertAfter: time.Duration(4+rng.Intn(10)) * time.Minute,
		trackLog:     rng.Intn(4) != 0,
		record:       rng.Intn(2) == 0,
		shards:       []int{0, 0, 1, 3}[rng.Intn(4)],
	}
	r.maxSources = []int{0, r.cfg.MinSources + 1, 20, 40}[rng.Intn(4)]
	if r.shards <= 1 {
		r.maxMinutes = []int{0, 6, 16, 40}[rng.Intn(4)]
	}
	return r
}

func (r refRun) tune(m *Monitor) {
	m.Retention, m.ReAlertAfter = r.retention, r.reAlertAfter
	m.MaxMinutes, m.MaxSourcesPerBin = r.maxMinutes, r.maxSources
	m.TrackAttackLog = r.trackLog
}

// eventView is what a consumer reads of an event: its sequence number
// and clocks are the log's, not the monitor's.
type eventView struct {
	Kind   string
	Attack uint64
	Attrs  []eventlog.Attr
}

func eventViews(l *eventlog.Log, ordered bool) []eventView {
	if l == nil {
		return nil
	}
	var out []eventView
	for _, e := range l.Snapshot() {
		out = append(out, eventView{e.Kind, e.AttackID, e.Attrs})
	}
	if !ordered {
		// Shards emit concurrently: compare the multiset.
		sort.Slice(out, func(i, j int) bool { return fmt.Sprint(out[i]) < fmt.Sprint(out[j]) })
	}
	return out
}

// TestMonitorMatchesReference drives the Monitor, serial and sharded,
// and the spec monitor (spec_test.go: the documented behaviour by full
// scans) through the same canonical-address streams under randomly
// drawn configurations, and after every chunk of records compares
// every alert, the accounting, the attack log, the event stream when a
// recorder is attached, and the snapshot.
func TestMonitorMatchesReference(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	var refused, overflowed, spilled, late, sharded bool
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		recs := genRefStream(rng, 12_000)
		run := drawRefRun(rng)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ref, sawLate := matchReference(t, run, recs, rng)
			st := ref.stats
			t.Logf("%v: %+v", run, st)
			refused = refused || st.RejectedRecords > 0
			overflowed = overflowed || st.SourceOverflows > 0
			late = late || sawLate
			sharded = sharded || run.shards > 0
			for _, b := range ref.bins {
				spilled = spilled || len(b.sources) > 12
			}
			if st.Alerts == 0 || st.EvictedBins == 0 {
				t.Fatalf("%v: degenerate run: %+v", run, st)
			}
		})
	}
	if !refused || !overflowed || !spilled || !late || !sharded {
		t.Fatalf("the seeds lost coverage: refusal %v, source overflow %v, spilled set %v, late record %v, sharded run %v",
			refused, overflowed, spilled, late, sharded)
	}
}

// matchReference feeds recs, in chunks of random size, to the monitor
// run describes and to the spec monitor, and after every chunk
// compares every alert so far, the accounting, the attack log, the
// event stream when a recorder is attached, and the snapshot. A
// sharded run gets each chunk as one row or column batch (a coin
// flip) and is read inside a fan-out barrier, after replaying the
// global clock on every shard. It returns the spec monitor, and whether
// a matched record arrived behind the horizon.
func matchReference(t *testing.T, run refRun, recs []flow.Record, rng *rand.Rand) (ref *specMonitor, late bool) {
	t.Helper()
	var refEvents, events *eventlog.Log
	if run.record {
		refEvents, events = eventlog.New(1<<18), eventlog.New(1<<18)
	}
	ref = newSpecMonitor(run, refEvents)

	var m *Monitor
	var sm *ShardedMonitor
	var f *pipe.FanOut
	if run.shards == 0 {
		m = NewMonitor(run.cfg)
		run.tune(m)
		m.Events = events
	} else {
		sm = NewShardedMonitor(run.cfg, run.shards)
		for _, sh := range sm.Monitors() {
			run.tune(sh)
		}
		sm.SetEvents(events)
		f = sm.FanOut()
		defer func() {
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}()
	}

	var want, got []Alert
	for off := 0; off < len(recs); {
		n := min(1+rng.Intn([]int{16, 300, 3000}[rng.Intn(3)]), len(recs)-off)
		chunk := recs[off : off+n]
		off += n
		for i := range chunk {
			was := ref.clock
			if a := ref.Add(&chunk[i]); a != nil {
				want = append(want, *a)
			}
			late = late || ref.clock == was && specMatches(&chunk[i], ref.cfg) &&
				specKeyOf(&chunk[i]).minute < ref.clock-int64(ref.retention/time.Second)
		}
		var log []AttackSummary
		var st MonitorStats
		var snap *MonitorSnapshot
		if m != nil {
			for i := range chunk {
				if a := m.Add(&chunk[i]); a != nil {
					got = append(got, *a)
				}
			}
			log, st, snap = m.AttackLog(), m.Stats(), m.Snapshot()
		} else {
			var b *pipe.Batch
			if rng.Intn(2) == 0 {
				b = pipe.NewColsBatch()
				for i := range chunk {
					b.Cols.AppendRecord(&chunk[i])
				}
			} else {
				b = pipe.Wrap(append([]flow.Record(nil), chunk...))
			}
			err := f.Process(b)
			b.Release()
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Barrier(func() error {
				sm.AdvanceAll(f.Watermark())
				got = sm.Alerts()
				log, st, snap = shardedAttackLog(sm), sm.Stats(), sm.Snapshot()
				// The fold leaves empty tables nil; a serial
				// snapshot has them empty.
				if snap.Bins == nil {
					snap.Bins = []BinSnapshot{}
				}
				if snap.Alerted == nil {
					snap.Alerted = []AlertMarker{}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		where := fmt.Sprintf("%v, after record %d", run, off)
		if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: alerts diverge (%d vs %d reference)", where, len(got), len(want))
		}
		if rst := ref.stats; st != rst {
			t.Fatalf("%s: stats %+v, reference %+v", where, st, rst)
		}
		if rlog := ref.AttackLog(); len(log) != len(rlog) || len(log) > 0 && !reflect.DeepEqual(log, rlog) {
			t.Fatalf("%s: attack log diverges (%d vs %d reference entries)", where, len(log), len(rlog))
		}
		if g, w := eventViews(events, run.shards <= 1), eventViews(refEvents, run.shards <= 1); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: event streams diverge (%d vs %d reference events)", where, len(g), len(w))
		}
		if g, w := snapshotBytes(t, snap), snapshotBytes(t, ref.Snapshot()); string(g) != string(w) {
			t.Fatalf("%s: snapshots diverge:\n%s\nreference\n%s", where, g, w)
		}
	}
	return ref, late
}

// TestMonitorMatchesReferenceAtEdges runs matchReference over streams
// built for the two places where a record must not reuse what an
// eviction took away: the memo naming a bin the clock just dropped,
// and a bin filed under an attack that the capacity eviction making
// room for it just closed.
func TestMonitorMatchesReferenceAtEdges(t *testing.T) {
	at := func(victim string, minute int) flow.Record {
		return ntpRec("198.51.100.1", victim, 486, 1000, t0.Add(time.Duration(minute)*time.Minute))
	}
	run := refRun{
		cfg:          Config{MinRateBps: 1000, MinSources: 1},
		retention:    3 * time.Minute,
		reAlertAfter: 10 * time.Minute,
		trackLog:     true,
		record:       true,
	}
	for _, tc := range []struct {
		name       string
		maxMinutes int
		recs       []flow.Record
	}{
		// The second record evicts the first one's bin, which the memo
		// still names; the third, late, must open a new bin and attack.
		{"memo across eviction", 0, []flow.Record{
			at("203.0.113.1", 0), at("203.0.113.2", 5), at("203.0.113.1", 0), at("203.0.113.1", 0),
		}},
		// At a three-bin cap: the fourth record, late, opens an attack
		// on a quiet victim, and the eviction that makes room for its
		// bin closes that attack again; the fifth, in the same bin,
		// must open the victim's next attack.
		{"attack closed by the capacity eviction", 3, []flow.Record{
			at("203.0.113.1", 10), at("203.0.113.2", 10), at("203.0.113.3", 5),
			at("203.0.113.4", 6), at("203.0.113.4", 6), at("203.0.113.4", 6),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, shards := range []int{0, 1} {
				run := run
				run.maxMinutes, run.shards = tc.maxMinutes, shards
				matchReference(t, run, tc.recs, rand.New(rand.NewSource(1)))
			}
		})
	}
}

// TestRestoreMatchesUninterruptedForTwins: a monitor restored from a
// mid-stream snapshot must go on exactly as the uninterrupted one —
// alerts, attack log and the next snapshot's bytes — when the stream
// names a victim and a source both as IPv4 addresses and as their
// IPv4-mapped IPv6 twins, or uses the invalid address. The monitor
// takes every address in its 16-byte form, as the snapshot stores it,
// so twins are one victim and one source on both sides of a restart.
func TestRestoreMatchesUninterruptedForTwins(t *testing.T) {
	v4 := netip.MustParseAddr("1.2.3.4")
	mapped := netip.AddrFrom16(v4.As16())
	src := func(s string) netip.Addr { return netip.MustParseAddr(s) }
	twin := func(a netip.Addr) netip.Addr { return netip.AddrFrom16(a.As16()) }
	for _, tc := range []struct {
		name     string
		victims  []netip.Addr
		sources  []netip.Addr
		snapshot int // records before the snapshot
	}{
		{"mapped twins", []netip.Addr{v4, mapped},
			[]netip.Addr{src("9.9.9.1"), twin(src("9.9.9.1")), src("9.9.9.2"), src("9.9.9.3")}, 3},
		{"invalid address", []netip.Addr{{}, src("::")},
			[]netip.Addr{{}, src("::"), src("9.9.9.2"), twin(src("9.9.9.2")), src("9.9.9.3")}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var recs []flow.Record
			for i := 0; i < 12; i++ {
				r := ntpRec("9.9.9.9", "1.1.1.1", 486, 1000, t0.Add(time.Duration(i)*7*time.Second))
				r.Dst = tc.victims[i%len(tc.victims)]
				r.Src = tc.sources[i%len(tc.sources)]
				recs = append(recs, r)
			}
			cfg := Config{MinRateBps: 1000, MinSources: 2}
			run := func(m *Monitor, recs []flow.Record) []Alert {
				var out []Alert
				for i := range recs {
					if a := m.Add(&recs[i]); a != nil {
						out = append(out, *a)
					}
				}
				return out
			}
			whole := NewMonitor(cfg)
			whole.TrackAttackLog = true
			wantAlerts := run(whole, recs)

			first := NewMonitor(cfg)
			first.TrackAttackLog = true
			gotAlerts := run(first, recs[:tc.snapshot])
			restored := NewMonitor(cfg)
			restored.TrackAttackLog = true
			restored.Restore(first.Snapshot())
			gotAlerts = append(gotAlerts, run(restored, recs[tc.snapshot:])...)

			if len(wantAlerts) == 0 {
				t.Fatal("the stream raised no alert")
			}
			if !reflect.DeepEqual(gotAlerts, wantAlerts) {
				t.Errorf("alerts: restored run %v, uninterrupted %v", gotAlerts, wantAlerts)
			}
			if g, w := restored.AttackLog(), whole.AttackLog(); !reflect.DeepEqual(g, w) {
				t.Errorf("attack log: restored run %+v, uninterrupted %+v", g, w)
			}
			g, w := snapshotBytes(t, restored.Snapshot()), snapshotBytes(t, whole.Snapshot())
			if string(g) != string(w) {
				t.Errorf("snapshots differ:\nrestored      %s\nuninterrupted %s", g, w)
			}
			var snap MonitorSnapshot
			if err := json.Unmarshal(w, &snap); err != nil {
				t.Fatal(err)
			}
			for _, b := range snap.Bins {
				for i := 1; i < len(b.Sources); i++ {
					if string(b.Sources[i-1][:]) >= string(b.Sources[i][:]) {
						t.Errorf("bin %x sources are not sorted and unique: %x", b.Victim, b.Sources)
					}
				}
			}
		})
	}
}
