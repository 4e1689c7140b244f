package trafficgen

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"booterscope/internal/amplify"
	"booterscope/internal/classify"
	"booterscope/internal/flow"
	"booterscope/internal/packet"
)

var (
	scnStart = time.Date(2018, 9, 30, 0, 0, 0, 0, time.UTC)
	takedown = time.Date(2018, 12, 19, 0, 0, 0, 0, time.UTC)
)

func testScenario(scale float64) *Scenario {
	return NewScenario(Config{
		Start:    scnStart,
		Days:     122,
		Takedown: takedown,
		Seed:     42,
		Scale:    scale,
	})
}

func TestKindString(t *testing.T) {
	if KindIXP.String() != "IXP" || KindTier1.String() != "tier-1 ISP" || KindTier2.String() != "tier-2 ISP" {
		t.Error("kind names wrong")
	}
}

func TestDayDeterministic(t *testing.T) {
	s1, s2 := testScenario(0.2), testScenario(0.2)
	a := s1.Day(KindTier2, 5)
	b := s2.Day(KindTier2, 5)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Bytes != b[i].Bytes {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestDayTime(t *testing.T) {
	s := testScenario(0.2)
	if !s.DayTime(0).Equal(scnStart) {
		t.Errorf("day 0 = %v", s.DayTime(0))
	}
	if !s.DayTime(80).Equal(takedown) {
		t.Errorf("day 80 = %v, want takedown date", s.DayTime(80))
	}
}

func TestTier1IngressOnly(t *testing.T) {
	s := testScenario(0.2)
	for _, rec := range s.Day(KindTier1, 3) {
		if rec.Direction != flow.Ingress {
			t.Fatal("tier-1 contains egress records")
		}
	}
}

func TestTier2HasBothDirections(t *testing.T) {
	s := testScenario(0.2)
	recs := s.Day(KindTier2, 3)
	var in, eg int
	for _, rec := range recs {
		if rec.Direction == flow.Ingress {
			in++
		} else {
			eg++
		}
	}
	if in == 0 || eg == 0 {
		t.Errorf("tier-2 directions: ingress=%d egress=%d", in, eg)
	}
}

func TestIXPSampled(t *testing.T) {
	s := testScenario(0.2)
	recs := s.Day(KindIXP, 3)
	if len(recs) == 0 {
		t.Fatal("no IXP records")
	}
	for _, rec := range recs {
		if rec.SamplingRate != 10000 {
			t.Fatalf("IXP record sampling rate = %d", rec.SamplingRate)
		}
		if rec.Packets == 0 {
			t.Fatal("sampled record with zero packets")
		}
	}
	// Sampling must shrink the record count relative to an unsampled
	// platform view of the same day.
	unsampled := NewScenario(Config{
		Start: scnStart, Days: 122, Takedown: takedown, Seed: 42,
		Scale: 0.2, IXPSamplingRate: 1,
	})
	full := unsampled.Day(KindIXP, 3)
	if len(recs) >= len(full) {
		t.Errorf("sampled IXP records %d >= unsampled %d", len(recs), len(full))
	}
}

func TestTriggerTrafficDropsAtTakedown(t *testing.T) {
	s := testScenario(0.3)
	countTrigger := func(day int, port uint16) (pkts uint64) {
		for _, rec := range s.Day(KindTier2, day) {
			if rec.DstPort == port && rec.Protocol == packet.IPProtoUDP {
				pkts += rec.ScaledPackets()
			}
		}
		return
	}
	// Average 5 days before vs 5 days after for memcached.
	var before, after uint64
	for d := 70; d < 75; d++ {
		before += countTrigger(d, 11211)
	}
	for d := 82; d < 87; d++ {
		after += countTrigger(d, 11211)
	}
	ratio := float64(after) / float64(before)
	if ratio > 0.45 {
		t.Errorf("memcached trigger ratio = %.2f, want strong drop (~0.225)", ratio)
	}
	// NTP trigger drop is milder (~0.38).
	before, after = 0, 0
	for d := 70; d < 75; d++ {
		before += countTrigger(d, 123)
	}
	for d := 82; d < 87; d++ {
		after += countTrigger(d, 123)
	}
	ratio = float64(after) / float64(before)
	if ratio < 0.2 || ratio > 0.65 {
		t.Errorf("NTP trigger ratio = %.2f, want ~0.38", ratio)
	}
}

func TestVictimAttackProcessStationary(t *testing.T) {
	// Attack *counts* must not shift at the takedown (attack volume is
	// heavy-tailed, so counts are the stable stationarity measure —
	// exactly what the paper's Figure 5 tests).
	s := testScenario(0.5)
	countVictims := func(from, to int) int {
		victims := make(map[string]bool)
		for d := from; d < to; d++ {
			for _, rec := range s.Day(KindTier2, d) {
				if rec.SrcPort == 123 && rec.AvgPacketSize() > 200 && rec.Packets > 1000 {
					victims[rec.Dst.String()] = true
				}
			}
		}
		return len(victims)
	}
	before := countVictims(65, 80)
	after := countVictims(81, 96)
	ratio := float64(after) / float64(before)
	if ratio < 0.6 || ratio > 1.6 {
		t.Errorf("victim count ratio = %.2f (before %d, after %d), should be stationary", ratio, before, after)
	}
}

func TestNTPPacketSizeBimodal(t *testing.T) {
	// Figure 2(a): NTP packet size distribution at the IXP is bimodal;
	// roughly half the packets are < 200 bytes.
	s := testScenario(0.5)
	var small, large uint64
	for d := 10; d < 20; d++ {
		for _, rec := range s.Day(KindIXP, d) {
			if rec.SrcPort != 123 && rec.DstPort != 123 {
				continue
			}
			if rec.AvgPacketSize() < 200 {
				small += rec.ScaledPackets()
			} else {
				large += rec.ScaledPackets()
			}
		}
	}
	frac := float64(small) / float64(small+large)
	if frac < 0.02 || frac > 0.98 {
		t.Errorf("small-packet share = %.2f, want a bimodal split with both modes populated", frac)
	}
	if small == 0 || large == 0 {
		t.Error("distribution not bimodal")
	}
}

// classifyRecs feeds recs to c as one columnar slab, the shape the
// classifier reads.
func classifyRecs(c *classify.Classifier, recs []flow.Record) {
	var cols flow.Columns
	for i := range recs {
		cols.AppendRecord(&recs[i])
	}
	for i := range recs {
		c.AddCols(&cols, i)
	}
}

func TestAttacksDetectableByConservativeFilter(t *testing.T) {
	s := testScenario(0.3)
	c := classify.New(classify.Config{})
	for d := 10; d < 20; d++ {
		classifyRecs(c, s.Day(KindTier2, d))
	}
	fs := c.FilterStats()
	if fs.Optimistic == 0 {
		t.Fatal("no optimistic victims")
	}
	if fs.Conservative == 0 {
		t.Fatal("no conservative victims — attack generator too weak")
	}
	// The conservative filter must cut a large share (paper: 78 %).
	if red := fs.ReductionBoth(); red < 0.3 {
		t.Errorf("conservative reduction = %.2f, want substantial cut", red)
	}
}

func TestHeavyTailedAttackRates(t *testing.T) {
	s := testScenario(1.0)
	c := classify.New(classify.Config{})
	for d := 10; d < 40; d++ {
		classifyRecs(c, s.Day(KindIXP, d))
	}
	victims := c.Victims()
	if len(victims) == 0 {
		t.Fatal("no victims")
	}
	var over10, over50 int
	for _, v := range victims {
		if v.MaxGbps > 10 {
			over10++
		}
		if v.MaxGbps > 50 {
			over50++
		}
		if v.MaxGbps > 603 {
			t.Errorf("victim rate %.0f Gbps exceeds the 602 Gbps ceiling", v.MaxGbps)
		}
	}
	if over10 == 0 {
		t.Error("no victims above 10 Gbps — tail too light")
	}
	// The extreme events are rare but must exist over 30 IXP days.
	if over50 == 0 {
		t.Error("no victims above 50 Gbps at the IXP")
	}
}

func TestVantageDestinationOrdering(t *testing.T) {
	// Victim destination counts must order IXP > tier-2 > tier-1,
	// mirroring the paper's 244K/95K/36K.
	s := testScenario(0.5)
	count := func(k Kind) int {
		c := classify.New(classify.Config{})
		for d := 10; d < 16; d++ {
			classifyRecs(c, s.Day(k, d))
		}
		return len(c.Victims())
	}
	ixp, t1, t2 := count(KindIXP), count(KindTier1), count(KindTier2)
	if !(ixp > t2 && t2 > t1) {
		t.Errorf("victim ordering IXP=%d tier2=%d tier1=%d, want IXP > tier2 > tier1", ixp, t2, t1)
	}
}

func TestScannersHaveFewSourcesPerDest(t *testing.T) {
	// Scanner traffic (large packets, single sources) must exist so the
	// optimistic/conservative gap is meaningful.
	s := testScenario(0.3)
	c := classify.New(classify.Config{})
	classifyRecs(c, s.Day(KindTier2, 5))
	lowSources := 0
	for _, v := range c.Victims() {
		if v.MaxSources <= 2 && v.MaxGbps < 0.01 {
			lowSources++
		}
	}
	if lowSources == 0 {
		t.Error("no scanner-like destinations in the optimistic set")
	}
}

func TestPostTakedownOverride(t *testing.T) {
	s := NewScenario(Config{
		Start: scnStart, Days: 122, Takedown: takedown, Seed: 1, Scale: 0.3,
		PostTakedownBooterFactor: map[amplify.Vector]float64{
			amplify.NTP: 1.0, amplify.DNS: 1.0, amplify.Memcached: 1.0,
		},
	})
	countTrigger := func(day int) (pkts uint64) {
		for _, rec := range s.Day(KindTier2, day) {
			if rec.DstPort == 11211 {
				pkts += rec.ScaledPackets()
			}
		}
		return
	}
	var before, after uint64
	for d := 74; d < 79; d++ {
		before += countTrigger(d)
	}
	for d := 81; d < 86; d++ {
		after += countTrigger(d)
	}
	ratio := float64(after) / float64(before)
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("no-effect override ratio = %.2f, want ~1", ratio)
	}
}

// TestScenarioConcurrentUse: one Scenario serving Day for every kind
// and FederatedDay from four goroutines at once returns exactly what
// serial calls return. Under -race it also shows the calls share no
// mutable state.
func TestScenarioConcurrentUse(t *testing.T) {
	s := testScenario(0.1)
	const firstDay, lastDay = 78, 82
	type result struct {
		days  [][]flow.Record
		views [][][]flow.Record
	}
	calls := []func(day int) ([]flow.Record, [][]flow.Record){
		func(day int) ([]flow.Record, [][]flow.Record) { return s.Day(KindIXP, day), nil },
		func(day int) ([]flow.Record, [][]flow.Record) { return s.Day(KindTier1, day), nil },
		func(day int) ([]flow.Record, [][]flow.Record) { return s.Day(KindTier2, day), nil },
		func(day int) ([]flow.Record, [][]flow.Record) { return s.FederatedDay(day, digestViews) },
	}
	run := func(call func(int) ([]flow.Record, [][]flow.Record)) (res result) {
		for d := firstDay; d <= lastDay; d++ {
			recs, views := call(d)
			res.days = append(res.days, recs)
			res.views = append(res.views, views)
		}
		return res
	}
	serial := make([]result, len(calls))
	for i, call := range calls {
		serial[i] = run(call)
	}
	concurrent := make([]result, len(calls))
	var wg sync.WaitGroup
	for i, call := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = run(call)
		}()
	}
	wg.Wait()
	for i := range calls {
		if !reflect.DeepEqual(concurrent[i], serial[i]) {
			t.Errorf("call %d: concurrent result differs from serial", i)
		}
	}
}

func BenchmarkDayTier2(b *testing.B) { benchDay(b, KindTier2) }

func BenchmarkDayIXP(b *testing.B) { benchDay(b, KindIXP) }

// benchDay generates one vantage's days in turn and reports, beside
// B/op, how many records a day holds and how many bytes were allocated
// per record Day generated.
func benchDay(b *testing.B, k Kind) {
	s := testScenario(0.5)
	b.ReportAllocs()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	recs := 0
	for i := 0; i < b.N; i++ {
		recs += len(s.Day(k, i%122))
	}
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(recs)/float64(b.N), "records/op")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(recs), "B/record")
}

func TestWeeklySeasonality(t *testing.T) {
	// Trigger traffic is heavier on weekends than midweek; average over
	// many weeks to beat the Poisson noise.
	s := testScenario(0.5)
	var weekend, midweek float64
	var weekendN, midweekN int
	for d := 0; d < 70; d++ {
		day := s.DayTime(d)
		var pkts float64
		for _, rec := range s.Day(KindTier2, d) {
			if rec.DstPort == 123 {
				pkts += float64(rec.ScaledPackets())
			}
		}
		switch day.Weekday() {
		case time.Saturday, time.Sunday:
			weekend += pkts
			weekendN++
		case time.Tuesday, time.Wednesday:
			midweek += pkts
			midweekN++
		}
	}
	wAvg := weekend / float64(weekendN)
	mAvg := midweek / float64(midweekN)
	if wAvg <= mAvg {
		t.Errorf("weekend avg %.0f <= midweek avg %.0f; seasonality missing", wAvg, mAvg)
	}
}
