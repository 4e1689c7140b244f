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
// IPv4 table once, each doubling allocates once more, and the first
// IPv6 member allocates the table IPv6 and invalid members share.
func TestHotPathAllocs(t *testing.T) {
	srcs := make([][16]byte, 25)
	for i := range srcs {
		srcs[i] = netip.AddrFrom4([4]byte{198, 51, 100, byte(i)}).As16()
	}
	wide := make([][16]byte, 6)
	for i := range wide {
		wide[i] = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(i)}).As16()
	}
	fill := func(srcs [][16]byte) func(t *testing.T) func() {
		return func(*testing.T) func() {
			var s SourceSet
			return func() {
				s = SourceSet{}
				for _, a := range srcs {
					s.AddAs16(a)
				}
			}
		}
	}
	runAllocRows(t, []allocRow{{
		name:   "member hits",
		covers: []string{"(*SourceSet).AddAs16", "(*SourceSet).add4"},
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
		covers: []string{"(*SourceSet).add4", "(*SourceSet).grow4"},
		runs:   100,
		budget: 1,
		reason: "the IPv4 spill table, 32 four-byte slots (128 B): allocated once per set, on the thirteenth distinct IPv4 source; sets that stay within the inline array never allocate",
		setup:  fill(srcs[:13]),
	}, {
		name:   "25 sources",
		covers: []string{"(*SourceSet).add4", "(*SourceSet).grow4"},
		runs:   100,
		budget: 2,
		reason: "the IPv4 spill table, then one doubling to 64 slots (256 B) at 3/4 load: log2(members/24) doublings over a set's life, each a []uint32 the collector does not scan",
		setup:  fill(srcs),
	}, {
		name:   "IPv6 sources",
		covers: []string{"(*SourceSet).addWide", "(*wideSet).insert"},
		runs:   100,
		budget: 2,
		reason: "the first IPv6 member allocates the wide table's header and its 8 slots of 17 bytes; six members stay within 3/4 load. IPv4-only sets never allocate it",
		setup:  fill(wide),
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
