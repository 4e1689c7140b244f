package ipfix

import (
	"testing"

	"booterscope/internal/flow"
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

// TestHotPathAllocs pins the live decode path: a decode into a reused
// slab, and the collector's per-datagram step around it (a recycled
// buffer, then the decode and the hand-off), allocate nothing. Each call
// takes a fresh 32-record message, past the warm-up that grows the
// duplicate ring.
func TestHotPathAllocs(t *testing.T) {
	const warm, runs = 80, 200
	feed := func(t *testing.T, step func([]byte)) func() {
		e := &Encoder{DomainID: 5, TemplateRefresh: 1 << 20}
		msgs := make([][]byte, warm+runs+1)
		for i := range msgs {
			msgs[i] = encodeN(t, e, 32)
		}
		for _, m := range msgs[:warm] {
			step(m)
		}
		next := msgs[warm:]
		return func() {
			step(next[0])
			next = next[1:]
		}
	}
	runAllocRows(t, []allocRow{{
		name:   "decode into a reused slab",
		covers: []string{"(*Decoder).appendDecode", "(*Decoder).parseDataLocked"},
		runs:   runs,
		reason: "the slab grows once per data set that outgrows it, so a reused slab stops growing at the largest message seen; Decode's fresh result is TestDecodeAllocations's",
		setup: func(t *testing.T) func() {
			d := NewDecoder()
			var recs []flow.Record
			return feed(t, func(m []byte) {
				var err error
				if recs, err = d.appendDecode(recs[:0], m); err != nil || len(recs) != 32 {
					t.Fatalf("appendDecode = %d records, %v; want 32", len(recs), err)
				}
			})
		},
	}, {
		name:   "collector datagram",
		covers: []string{"(*decodeWorker).handle", "(*Decoder).appendDecode", "(*Decoder).parseDataLocked"},
		runs:   runs,
		setup: func(t *testing.T) func() {
			col, err := NewCollector("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { col.Close() })
			delivered := 0
			col.setHandler(func(recs []flow.Record) { delivered += len(recs) })
			t.Cleanup(func() {
				if s := col.Stats(); delivered != 32*(warm+runs+1) || s.DecodeErrors != 0 || s.NoTemplate != 0 {
					t.Errorf("step delivered %d records (%d decode errors, %d template-less)", delivered, s.DecodeErrors, s.NoTemplate)
				}
			})
			// The reader's half (a buffer off the free list) and the worker's.
			w := &decodeWorker{c: col, free: make(chan []byte, 1)}
			return feed(t, func(m []byte) {
				b := w.buffer(len(m))
				copy(b, m)
				w.handle(b)
			})
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
