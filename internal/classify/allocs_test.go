package classify

import (
	"fmt"
	"testing"

	"booterscope/internal/flow"
	"booterscope/internal/pipe"
)

// allocRow is one entry point of the per-record code: setup warms it to
// its steady state and returns one call, and the call may make exactly
// budget allocations. covers names the per-record functions the call
// runs; testing.AllocsPerRun counts theirs and every callee's, inlined
// or not.
type allocRow struct {
	name   string
	covers []string
	runs   int
	budget float64
	reason string
	setup  func(t *testing.T) func()
}

// allocSlab is victims × sources amplified-NTP records in the minute of
// t0, each of pkts 486-byte packets.
func allocSlab(victims, sources int, pkts uint64) *flow.Columns {
	c := new(flow.Columns)
	for v := 0; v < victims; v++ {
		for s := 0; s < sources; s++ {
			r := ntpRec(fmt.Sprintf("11.0.0.%d", s), fmt.Sprintf("203.0.113.%d", v), 486, pkts, t0)
			c.AppendRecord(&r)
		}
	}
	return c
}

// shiftSlab moves every record of c by step seconds.
func shiftSlab(c *flow.Columns, step int64) {
	for i := range c.StartSec {
		c.StartSec[i] += step
	}
}

// TestHotPathAllocs pins the allocations of the three filters' record
// paths: records landing in existing bins allocate nothing, and each
// row that makes state names what one call allocates for it.
func TestHotPathAllocs(t *testing.T) {
	// Four victims hit by 11 amplifiers below the rate threshold, and one
	// victim's minute of 11 amplifiers at 7.7 Gbps.
	warm, crossing := allocSlab(4, 11, 1000), allocSlab(1, 11, 2_000_000)
	addAll := func(add func(*flow.Columns, int), c *flow.Columns) {
		for i := range c.Len() {
			add(c, i)
		}
	}
	process := func(t *testing.T, s *monitorShard, c *flow.Columns) {
		if err := s.Process(&pipe.Batch{Cols: c}); err != nil {
			t.Fatal(err)
		}
	}
	runAllocRows(t, []allocRow{{
		name:   "classifier, existing bins",
		covers: []string{"(*Classifier).AddCols", "(*Classifier).add", "(*binTable).get"},
		runs:   100,
		setup: func(*testing.T) func() {
			c := New(Config{})
			return func() { addAll(func(cols *flow.Columns, i int) { c.AddCols(cols, i) }, warm) }
		},
	}, {
		name:   "classifier, a new victim per call",
		covers: []string{"(*Classifier).AddCols", "(*Classifier).add", "(*binTable).get"},
		runs:   100,
		budget: 1,
		reason: "a victim's whole-window source set (Victim.TotalSources), allocated once per destination the optimistic filter accepts; the arena refill, one slab per 256 bins, and the maps' growth round away over 100 calls",
		setup: func(*testing.T) func() {
			c := New(Config{})
			one := allocSlab(1, 1, 1000)
			next := func() {
				one.DstLo[0]++
				c.AddCols(one, 0)
			}
			for range 1000 {
				next()
			}
			return next
		},
	}, {
		name:   "counter, existing bins",
		covers: []string{"(*AttackCounter).AddCols", "(*AttackCounter).add", "(*binTable).get"},
		runs:   100,
		setup: func(*testing.T) func() {
			a := NewAttackCounter(Config{})
			return func() { addAll(a.AddCols, warm) }
		},
	}, {
		name:   "counter, a crossing minute per hour",
		covers: []string{"(*AttackCounter).AddCols", "(*AttackCounter).add", "(*binTable).get"},
		runs:   100,
		budget: 2,
		reason: "the per-hour victim set, allocated once per wall-clock hour a threshold-crossing attack lands in: the map and its first group; the arena refill, one slab per 256 bins, and the hour map's growth round away over 100 calls",
		setup: func(*testing.T) func() {
			a := NewAttackCounter(Config{})
			c := allocSlab(1, 11, 2_000_000)
			next := func() {
				shiftSlab(c, 3600)
				addAll(a.AddCols, c)
			}
			for range 1000 {
				next()
			}
			return next
		},
	}, {
		name:   "monitor, existing bins",
		covers: []string{"(*monitorShard).Process", "(*Monitor).addCols", "(*Monitor).addMatched"},
		runs:   100,
		setup: func(t *testing.T) func() {
			s := NewShardedMonitor(Config{}, 1).shards[0]
			return func() { process(t, s, warm) }
		},
	}, {
		name:   "monitor, column ranges over existing bins",
		covers: []string{"(*Monitor).AddCols", "(*Monitor).addCols", "(*Monitor).addMatched", "(*Monitor).Count"},
		runs:   100,
		setup: func(*testing.T) func() {
			m := NewMonitor(Config{})
			return func() {
				var t Tally
				for lo := 0; lo < warm.Len(); lo += 7 {
					m.AddCols(warm, lo, min(lo+7, warm.Len()), &t)
				}
				m.Count(&t)
			}
		},
	}, {
		name:   "monitor, a new minute per call",
		covers: []string{"(*monitorShard).Process", "(*Monitor).addCols", "(*Monitor).addMatched", "(*Monitor).newBin", "(*minuteIndex).expire"},
		runs:   100,
		budget: 3,
		reason: "bin creation, one &monAgg per (victim, minute) bin, source set and attack link included; and the new minute's key list in each of the bin and attack eviction indexes; the clock advance expires the minutes past retention",
		setup: func(t *testing.T) func() {
			s := NewShardedMonitor(Config{}, 1).shards[0]
			c := allocSlab(1, 11, 1000)
			next := func() {
				shiftSlab(c, 60)
				process(t, s, c)
			}
			for range 100 {
				next()
			}
			return next
		},
	}, {
		name:   "monitor, alerted bins",
		covers: []string{"(*monitorShard).Process", "(*Monitor).addCols", "(*Monitor).addMatched"},
		runs:   100,
		setup: func(t *testing.T) func() {
			s := NewShardedMonitor(Config{}, 1).shards[0]
			process(t, s, crossing)
			if len(s.alerts) != 1 {
				t.Fatalf("the crossing slab raised %d alerts, want 1", len(s.alerts))
			}
			return func() { process(t, s, crossing) }
		},
	}})
}

// runAllocRows measures every row. AllocsPerRun makes one warm-up call,
// then divides the allocations of runs calls by runs, rounding down: a
// per-call allocation always shows, one amortized over more calls than
// runs never does.
func runAllocRows(t *testing.T, rows []allocRow) {
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			call := r.setup(t)
			if got := testing.AllocsPerRun(r.runs, call); got != r.budget {
				t.Errorf("%v allocate %v times per call, want %v (%s)", r.covers, got, r.budget, r.reason)
			}
		})
	}
}
