package flow

import (
	"net/netip"
	"testing"
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

// TestHotPathAllocs pins the source set's allocations: a member hit
// allocates nothing, a set that outgrows its inline array allocates its
// table once, and each doubling allocates once more.
func TestHotPathAllocs(t *testing.T) {
	srcs := make([][16]byte, 25)
	for i := range srcs {
		srcs[i] = netip.AddrFrom4([4]byte{198, 51, 100, byte(i)}).As16()
	}
	fill := func(n int) func(t *testing.T) func() {
		return func(*testing.T) func() {
			var s SourceSet
			return func() {
				s = SourceSet{}
				for _, a := range srcs[:n] {
					s.AddAs16(a)
				}
			}
		}
	}
	runAllocRows(t, []allocRow{{
		name:   "member hits",
		covers: []string{"(*SourceSet).add"},
		runs:   100,
		setup: func(*testing.T) func() {
			s := NewSourceSet(0)
			for _, a := range srcs {
				s.AddAs16(a)
			}
			return func() {
				for _, a := range srcs {
					s.AddAs16(a)
				}
			}
		},
	}, {
		name:   "13 sources",
		covers: []string{"(*SourceSet).add", "(*SourceSet).grow"},
		runs:   100,
		budget: 1,
		reason: "spill table: allocated once per set, on the thirteenth distinct source; sets that stay within the inline array never allocate",
		setup:  fill(13),
	}, {
		name:   "25 sources",
		covers: []string{"(*SourceSet).add", "(*SourceSet).grow"},
		runs:   100,
		budget: 2,
		reason: "the spill table, then one doubling at 3/4 load: log2(members/24) doublings over a set's life, each a pointer-free slice the collector does not scan",
		setup:  fill(25),
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
