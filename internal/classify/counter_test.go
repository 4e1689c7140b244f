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

// genCounterStream builds a shuffled stream of minute-bin bursts for
// the Figure 5 counter. Each burst aims at one source threshold the
// property test runs at (3, 10, 40, 300): it has from one below to two
// above that many distinct sources, so it lands on either side, and up
// to as many repeats. Its byte total is 2/3 or 3/2 of one of the two
// rate thresholds (7.5e8 and 7.5e9 bytes per minute), a coin flip. Forty
// victims, some sharing a low address byte (the memo's way index),
// over six hours; about one record in twenty has a benign twin that
// must be filtered out.
func genCounterStream(seed int64) []flow.Record {
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2018, 12, 1, 0, 0, 0, 0, time.UTC)
	var recs []flow.Record
	for b := 0; b < 320; b++ {
		v := rng.Intn(40)
		dst := netip.AddrFrom4([4]byte{203, 0, byte(v / 8), byte(v % 8 * 16)})
		minute := rng.Intn(360)
		distinct := []int{3, 10, 40, 300}[rng.Intn(4)] - 1 + rng.Intn(4)
		n := distinct + rng.Intn(distinct+1)
		total := []float64{7.5e8, 7.5e9}[rng.Intn(2)] * []float64{2.0 / 3, 1.5}[rng.Intn(2)]
		per := total / float64(n)
		for i := 0; i < n; i++ {
			s := i
			if i >= distinct {
				s = rng.Intn(distinct)
			}
			const size = 486
			pkts := uint64(per)/size + 1
			sec := time.Duration(minute)*time.Minute + time.Duration(rng.Intn(60))*time.Second
			r := flow.Record{
				Key: flow.Key{
					Src:      netip.AddrFrom4([4]byte{11, byte(s >> 8), byte(s), 1}),
					Dst:      dst,
					SrcPort:  NTPPort,
					DstPort:  44000,
					Protocol: packet.IPProtoUDP,
				},
				Packets: pkts,
				Bytes:   pkts * size,
				Start:   base.Add(sec),
				End:     base.Add(sec + time.Second),
			}
			recs = append(recs, r)
			if rng.Intn(20) == 0 {
				// A benign twin from a fresh source, below the
				// optimistic size threshold.
				r.Src, r.Bytes = netip.AddrFrom4([4]byte{12, byte(i >> 8), byte(i), 1}), r.Packets*90
				recs = append(recs, r)
			}
		}
	}
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs
}

// splitCounters feeds recs to k counters by assign, which is an
// arbitrary partition (not by victim, so minute bins split across
// counters); even counters take records through Add, odd ones through
// AddCols.
func splitCounters(recs []flow.Record, cols *flow.Columns, assign []int, k int, cfg Config) []*AttackCounter {
	parts := make([]*AttackCounter, k)
	for j := range parts {
		parts[j] = NewAttackCounter(cfg)
	}
	for i, j := range assign {
		if j%2 == 0 {
			parts[j].Add(&recs[i])
		} else {
			parts[j].AddCols(cols, i)
		}
	}
	return parts
}

// TestAttackCounterMatchesReference pins the capped source sets and the
// adopting merge against Figure 5's spec (spec_test.go): a counter fed
// every record as a column row, and random streams split across k
// counters by an arbitrary partition and merged in shuffled order —
// into a fresh counter (the first merge adopts) and into one of the
// parts (no merge adopts) — must give the spec's series at every
// MinSources and rate threshold. Seeds 1–4 are the first four positive
// integers, fixed before the test first ran; a failing seed is a
// finding, never a reason to drop it.
func TestAttackCounterMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		recs := genCounterStream(seed)
		cols := new(flow.Columns)
		for i := range recs {
			cols.AppendRecord(&recs[i])
		}
		rng := rand.New(rand.NewSource(seed))
		for _, minSources := range []int{0, 3, 40, 300} {
			for _, rate := range []float64{0, 1e8} {
				cfg := Config{MinRateBps: rate, MinSources: minSources}
				want := specHourly(recs, cfg)
				// Both rules must bite at every grid point, or the
				// comparison proves nothing about them.
				noSources, noRate := cfg, cfg
				noSources.MinSources, noRate.MinRateBps = -1, -1
				if len(want) == 0 || reflect.DeepEqual(want, specHourly(recs, noSources)) ||
					reflect.DeepEqual(want, specHourly(recs, noRate)) {
					t.Fatalf("seed %d %+v: the stream does not exercise both thresholds", seed, cfg)
				}
				byCols := NewAttackCounter(cfg)
				for i := range recs {
					byCols.AddCols(cols, i)
				}
				if got := byCols.Series(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %+v column rows:\ngot  %v\nwant %v", seed, cfg, got, want)
				}
				for _, k := range []int{1, 2, 3, 5} {
					assign := make([]int, len(recs))
					for i := range assign {
						assign[i] = rng.Intn(k)
					}
					order := rng.Perm(k)

					fresh := NewAttackCounter(cfg)
					parts := splitCounters(recs, cols, assign, k, cfg)
					for _, j := range order {
						fresh.Merge(parts[j])
					}
					if got := fresh.Series(); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d %+v k=%d merged into a fresh counter:\ngot  %v\nwant %v", seed, cfg, k, got, want)
					}

					parts = splitCounters(recs, cols, assign, k, cfg)
					into := parts[order[0]]
					for _, j := range order[1:] {
						into.Merge(parts[j])
					}
					if got := into.Series(); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d %+v k=%d merged into a part:\ngot  %v\nwant %v", seed, cfg, k, got, want)
					}
				}
			}
		}
	}
}

// TestClassifierMatchesSpec: Figures 2(b) and 2(c) — every victim's
// peak rate, peak and total source counts and verdict, and the filter's
// cut — equal the spec's, serially and merged across destination-
// disjoint parts, through Add and through AddCols.
func TestClassifierMatchesSpec(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		recs := genCounterStream(seed)
		cols := new(flow.Columns)
		for i := range recs {
			cols.AppendRecord(&recs[i])
		}
		for _, cfg := range []Config{{MinRateBps: 1.2e9, MinSources: 40}, {MinRateBps: 1.2e9, MinSources: 300}} {
			want, wantFS := specVictims(recs, cfg)
			if wantFS.Conservative == 0 || wantFS.RateOnly == wantFS.Optimistic || wantFS.SourcesOnly == wantFS.Optimistic {
				t.Fatalf("seed %d %+v: the stream does not exercise both rules: %+v", seed, cfg, wantFS)
			}
			for _, k := range []int{1, 3} {
				for _, columnar := range []bool{false, true} {
					parts := make([]*Classifier, k)
					for j := range parts {
						parts[j] = New(cfg)
					}
					for i := range recs {
						if p := parts[pipe.KeyDst(&recs[i])%uint64(k)]; columnar {
							p.AddCols(cols, i)
						} else {
							p.Add(&recs[i])
						}
					}
					for _, p := range parts[1:] {
						parts[0].Merge(p)
					}
					if got := parts[0].Victims(); !reflect.DeepEqual(got, want) {
						t.Errorf("seed %d %+v k=%d columnar %t: victims differ from the spec", seed, cfg, k, columnar)
					}
					if got := parts[0].FilterStats(); got != wantFS {
						t.Errorf("seed %d %+v k=%d columnar %t: filter stats %+v, spec %+v", seed, cfg, k, columnar, got, wantFS)
					}
				}
			}
		}
	}
}

// TestTwinVictimIsOneVictim: a stream naming its victim and its sources
// both as IPv4 addresses and as their IPv4-mapped twins is one victim
// with one source per twin pair, to the classifier through Add and
// AddCols as to the spec, the attack counter and the monitor.
func TestTwinVictimIsOneVictim(t *testing.T) {
	var recs []flow.Record
	cols := new(flow.Columns)
	for i := 0; i < 6; i++ {
		r := ntpRec(fmt.Sprintf("9.9.9.%d", i/2), "1.2.3.4", 486, 1000, t0.Add(time.Duration(i)*time.Second))
		if i%2 == 1 {
			r.Src, r.Dst = netip.AddrFrom16(r.Src.As16()), netip.AddrFrom16(r.Dst.As16())
		}
		recs = append(recs, r)
		cols.AppendRecord(&r)
	}
	cfg := Config{MinRateBps: 1000, MinSources: 2}
	want, _ := specVictims(recs, cfg)
	if len(want) != 1 || want[0].Addr != netip.MustParseAddr("1.2.3.4") || want[0].TotalSources != 3 || !want[0].Conservative {
		t.Fatalf("spec victims %+v", want)
	}
	byRows, byCols := New(cfg), New(cfg)
	counter, mon := NewAttackCounter(cfg), NewMonitor(cfg)
	var alerts int
	for i := range recs {
		byRows.Add(&recs[i])
		byCols.AddCols(cols, i)
		counter.Add(&recs[i])
		if mon.Add(&recs[i]) != nil {
			alerts++
		}
	}
	for name, c := range map[string]*Classifier{"Add": byRows, "AddCols": byCols} {
		if got := c.Victims(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: victims %+v, spec %+v", name, got, want)
		}
	}
	if got := counter.Series(); len(got) != 1 || got[0].Count != 1 {
		t.Errorf("attack counter series %+v, want one victim in one hour", got)
	}
	if alerts != 1 {
		t.Errorf("monitor raised %d alerts, want 1", alerts)
	}
}

// TestAttackCounterCapsSources: a sub-rate bin fed 500 distinct sources
// records MinSources+1 of them. At the paper's threshold that is the
// inline array, so no spill map is built; a larger MinSources spills,
// and its map stops growing at the cap.
func TestAttackCounterCapsSources(t *testing.T) {
	for _, tc := range []struct {
		minSources, want int
		spill            bool
	}{{0, 11, false}, {3, 4, false}, {40, 41, true}} {
		a := NewAttackCounter(Config{MinSources: tc.minSources})
		for i := 0; i < 500; i++ {
			r := ntpRec(fmt.Sprintf("13.0.%d.%d", i>>8, i&0xff), "203.0.113.20", 486, 1, t0)
			a.Add(&r)
		}
		agg := a.minutes[minuteKey{dst: netip.MustParseAddr("203.0.113.20").As16(), minute: t0.Unix()}]
		if agg.numSources() != tc.want || (agg.sources != nil) != tc.spill {
			t.Errorf("MinSources %d: %d sources recorded (spilled %t), want %d (spilled %t)",
				tc.minSources, agg.numSources(), agg.sources != nil, tc.want, tc.spill)
		}
	}
}

// BenchmarkAttackCounterAddCols feeds the counter sub-rate minute bins
// of 400 distinct sources each, in per-victim bursts: the shape whose
// source sets used to spill into maps. A fresh counter starts every
// pass over the slab.
func BenchmarkAttackCounterAddCols(b *testing.B) {
	const victims, sources = 64, 400
	cols := new(flow.Columns)
	for v := 0; v < victims; v++ {
		dst := fmt.Sprintf("203.0.%d.%d", v>>8, v&0xff)
		for s := 0; s < sources; s++ {
			r := ntpRec(fmt.Sprintf("11.%d.%d.1", s>>8, s&0xff), dst, 486, 10, t0.Add(time.Duration(v)*time.Minute))
			cols.AppendRecord(&r)
		}
	}
	n := cols.Len()
	var a *AttackCounter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			a = NewAttackCounter(Config{})
		}
		a.AddCols(cols, i%n)
	}
}
