package takedown

import (
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"booterscope/internal/amplify"
	"booterscope/internal/flow"
	"booterscope/internal/packet"
	"booterscope/internal/pipe"
	"booterscope/internal/trafficgen"
)

// edgeRecords is a to-reflector stream for the trigger stage's day
// index: daily traffic on every vector from day 5 to day Days-5 (seed
// 1, so the Welch tests have data on both sides of the event), plus
// records at the edges of the index.
//
//   - Memcached: zero-packet records at the first second that maps to
//     day 0 (one day minus a second before Start) and at the last
//     second of day Days, so its first and last touched days are
//     zero-sum array days.
//   - NTP: records up to a day before Start (the second that is day -1,
//     once more half a second into it, two days before) and on day
//     Days+1, zero-packet ones on its first and last touched days.
//   - DNS: StartSec at ±MaxInt64.
func edgeRecords(w Window) []flow.Record {
	rng := rand.New(rand.NewSource(1))
	start := w.Start.Unix()
	rec := func(v amplify.Vector, sec int64, pkts uint64) flow.Record {
		return flow.Record{
			Key: flow.Key{
				Src:      netip.AddrFrom4([4]byte{10, 0, 0, byte(rng.Intn(200))}),
				Dst:      netip.AddrFrom4([4]byte{192, 0, 2, byte(rng.Intn(200))}),
				SrcPort:  40000,
				DstPort:  v.Port(),
				Protocol: packet.IPProtoUDP,
			},
			Packets: pkts,
			Bytes:   pkts * 100,
			Start:   time.Unix(sec, 0),
			End:     time.Unix(sec, 0),
		}
	}
	var recs []flow.Record
	for d := 5; d <= w.Days-5; d++ {
		for _, v := range ReflectorVectors {
			for i := 0; i < 3; i++ {
				sec := start + int64(d)*secondsPerDay + rng.Int63n(secondsPerDay)
				recs = append(recs, rec(v, sec, 1+uint64(rng.Intn(1000))))
			}
		}
	}
	last := start + int64(w.Days+1)*secondsPerDay - 1
	half := rec(amplify.NTP, start-secondsPerDay, 5)
	half.Start = half.Start.Add(time.Second / 2)
	recs = append(recs, half,
		rec(amplify.Memcached, start-(secondsPerDay-1), 0),
		rec(amplify.Memcached, start-1, 0),
		rec(amplify.Memcached, last, 0),
		rec(amplify.NTP, start-2*secondsPerDay, 0),
		rec(amplify.NTP, start-secondsPerDay, 7),
		rec(amplify.NTP, start-secondsPerDay+1, 11),
		rec(amplify.NTP, last+1, 13),
		rec(amplify.NTP, last+secondsPerDay+1, 0),
		rec(amplify.DNS, math.MaxInt64, 17),
		rec(amplify.DNS, -math.MaxInt64, 19),
	)
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs
}

// batchSource emits recs in batches of 64, as columnar slabs or as
// record batches (transposed by Source.Scan).
func batchSource(recs []flow.Record, columnar bool) Source {
	return func(emit func(*pipe.Batch) error) error {
		for off := 0; off < len(recs); off += 64 {
			part := recs[off:min(off+64, len(recs))]
			var b *pipe.Batch
			if columnar {
				b = pipe.NewColsBatch()
				for i := range part {
					b.Cols.AppendRecord(&part[i])
				}
			} else {
				b = pipe.Wrap(append([]flow.Record(nil), part...))
			}
			if err := emit(b); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestTriggerDayIndexMatchesSeriesAdd: every vector's Figure 4 daily
// points equal the spec's (spec_test.go) through record batches and
// through columnar slabs — the trigger stage bins window days in an
// array — at par 1 and 3; and every run's panels and robustness
// verdicts equal the first one's.
func TestTriggerDayIndexMatchesSeriesAdd(t *testing.T) {
	w := WindowOf(testScenario(1).Config())
	recs := edgeRecords(w)
	spec := specFigure4(recs, w)
	var first *Analysis
	for _, columnar := range []bool{false, true} {
		for _, par := range []int{1, 3} {
			got, err := Analyze(batchSource(recs, columnar), w, trafficgen.KindTier2, par)
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range ReflectorVectors {
				if !reflect.DeepEqual(got.Figure4[j].Daily, spec[v]) {
					t.Errorf("columnar %t par %d: %v daily points differ from the spec", columnar, par, v)
				}
			}
			if first == nil {
				first = got
			} else if !reflect.DeepEqual(got.Figure4, first.Figure4) || !reflect.DeepEqual(got.Robustness, first.Robustness) {
				t.Errorf("columnar %t par %d: Figure 4 differs from the record path at par 1", columnar, par)
			}
		}
	}
}

// TestDayIndexEdges pins dayIndex against dayTimeSec at the edges of
// its range, and its refusal of windows it cannot index exactly.
func TestDayIndexEdges(t *testing.T) {
	w := WindowOf(testScenario(1).Config())
	x := w.dayIndex()
	start := w.Start.Unix()
	last := start + int64(w.Days+1)*secondsPerDay - 1
	for _, sec := range []int64{start - secondsPerDay + 1, start - 1, start, start + secondsPerDay - 1, last} {
		d, ok := x.of(sec)
		if !ok || !w.Start.Add(time.Duration(d)*24*time.Hour).Equal(w.dayTimeSec(sec)) {
			t.Errorf("second %d: day %d (%t), dayTimeSec %v", sec-start, d, ok, w.dayTimeSec(sec))
		}
	}
	for _, sec := range []int64{start - secondsPerDay, last + 1, math.MaxInt64, -math.MaxInt64, math.MinInt64} {
		if _, ok := x.of(sec); ok {
			t.Errorf("second %d is outside the window but indexed", sec)
		}
	}
	for _, bad := range []Window{
		{Start: w.Start.Add(time.Millisecond), Days: w.Days},
		{Start: w.Start, Days: -1},
		{Start: w.Start, Days: maxIndexedDays},
		{Start: time.Unix(math.MaxInt64-secondsPerDay, 0), Days: 1},
	} {
		if x := bad.dayIndex(); x.days != -1 || x.lo <= x.hi {
			t.Errorf("window %+v indexed as %+v", bad, x)
		}
	}
}
