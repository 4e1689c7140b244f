package flowstore

import (
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/pipe"
)

// allocRow is one entry point of the per-record code: setup warms it to
// its steady state and returns one call, and the call may make exactly
// budget allocations. covers names the per-record functions the call
// runs; testing.AllocsPerRun counts theirs and every callee's, inlined
// or not. A pooled row's buffers come from a sync.Pool.
type allocRow struct {
	name   string
	covers []string
	runs   int
	budget float64
	reason string
	pooled bool
	setup  func(t *testing.T) func()
}

// TestHotPathAllocs pins the archive's per-record write and read paths
// to zero allocations once their scratch is at size. Store.Append end
// to end is TestAppendSteadyStateAllocs.
func TestHotPathAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	recs := genFlows(rng, testBase, 2, 1024)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Start.Before(recs[j].Start) })
	block := stage(recs)
	// Rows in reverse start order: the sorting paths run on every call.
	reversed := new(flow.Columns)
	for i := len(recs) - 1; i >= 0; i-- {
		reversed.AppendRecord(&recs[i])
	}
	mid := recs[len(recs)/2].Start
	q := Query{
		From: mid.Add(-12 * time.Hour), To: mid.Add(12 * time.Hour),
		DstPorts: []uint16{123, 53}, PortsEither: []uint16{123, 11211}, Protocols: []uint8{17},
	}
	runAllocRows(t, []allocRow{{
		name: "encode",
		covers: []string{"(*blockEncoder).encode", "buildIndex", "widen", "measure",
			"(*blockEncoder).probe", "(*blockEncoder).appendValueColumn", "appendPacked"},
		runs:   100,
		reason: "the widening and dictionary row-position scratch grow to the block geometry once per encoder and are reused for every column of every later block",
		setup: func(*testing.T) func() {
			var e blockEncoder
			return func() { e.encode(block) }
		},
	}, {
		name: "decode and filter",
		covers: []string{"(*ColumnBlock).applyQuery", "(*colPredicate).rowMatches", "(*ColumnBlock).decodeCol",
			"decodeUvarints", "(*ColumnBlock).decodeDict", "dictHeader", "decodeFixed", "(*ColumnBlock).appendSelected"},
		runs:   100,
		reason: "the selection bitmap and the dict value table grow once per ColumnBlock and are reused for every later block and dict column they fit (this block has 8 dict columns); the decoders' other allocations are on their corrupt-block error paths, which box an offset, a dict index or a column index",
		pooled: true,
		setup: func(t *testing.T) func() {
			payload := encodeBlock(recs)
			cb, p, dst := new(ColumnBlock), compilePredicate(&q), new(flow.Columns)
			call := func() {
				if err := cb.load(payload, len(recs)); err != nil {
					t.Fatal(err)
				}
				if err := cb.applyQuery(&p); err != nil {
					t.Fatal(err)
				}
				if err := cb.decodeSet(AllColumns); err != nil {
					t.Fatal(err)
				}
				dst.Reset()
				cb.appendSelected(dst)
			}
			call()
			encs := map[byte]int{}
			for _, e := range cb.pb.encs[colSrcHiIdx:] {
				encs[e]++
			}
			if n := dst.Len(); n == 0 || n == len(recs) || encs[encRaw] == 0 || encs[encDict] != 8 || encs[encFixed] == 0 {
				t.Fatalf("block selects %d of %d rows with encodings %v; the row needs a partial selection, raw and fixed columns and 8 dict columns", n, len(recs), encs)
			}
			return call
		},
	}, {
		name:   "shard routing",
		covers: []string{"shardOf", "fnv1a", "fnvV4Prefix", "fnvV4"},
		runs:   100,
		setup: func(*testing.T) func() {
			mixed := append([]flow.Record(nil), recs[:64]...)
			for i := range mixed[:32] {
				mixed[i].Dst = netip.MustParseAddr("2001:db8::1")
			}
			return func() {
				for i := range mixed {
					shardOf(&mixed[i], 4)
				}
			}
		},
	}, {
		name:   "block staging",
		covers: []string{"(*segmentWriter).add"},
		runs:   100,
		setup: func(*testing.T) func() {
			w := &segmentWriter{cols: new(flow.Columns)}
			return func() {
				w.cols.Reset()
				w.unsorted = false
				for i := range recs {
					w.add(&recs[i], len(recs))
				}
			}
		},
	}, {
		name:   "block write",
		covers: []string{"(*Store).writeBlock"},
		runs:   100,
		setup: func(t *testing.T) func() {
			f, err := os.Create(filepath.Join(t.TempDir(), "seg"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			s, w := new(Store), &segmentWriter{f: f}
			var e blockEncoder
			return func() {
				if err := s.writeBlock(&e, w, reversed, true); err != nil {
					t.Fatal(err)
				}
			}
		},
	}, {
		name:   "ordered flush",
		covers: []string{"(*shardScanner).flushBelow"},
		runs:   100,
		pooled: true,
		setup: func(t *testing.T) func() {
			rows := new(flow.Columns)
			rows.AppendRange(reversed, 0, reversed.Len())
			sc := &shardScanner{ordered: true, slab: pipe.NewColsBatch(),
				send: func(b *pipe.Batch) error { b.Release(); return nil }}
			t.Cleanup(sc.slab.Release)
			const step = 3 * 24 * 3600
			var bound int64 = rows.StartSec[0] + 1
			return func() {
				sc.slab.Cols.AppendRange(rows, 0, rows.Len())
				if err := sc.flushBelow(0, bound); err != nil || sc.slab.Cols.Len() != 0 {
					t.Fatalf("flushBelow kept %d rows, err %v", sc.slab.Cols.Len(), err)
				}
				shiftCols(rows, step)
				bound += step
			}
		},
	}, {
		name:   "ordered merge",
		covers: []string{"(*merge).next"},
		runs:   200,
		setup: func(t *testing.T) func() {
			// Two streams of 32 slabs of 16 rows, interleaved second by
			// second: every run is one row, and every 16th call per
			// stream moves to its next slab.
			var m merge
			for s := range 2 {
				ch := make(chan shardBatch, 32)
				for k := range 32 {
					b := pipe.NewColsBatch()
					for j := range 16 {
						r := recs[0]
						r.Start = testBase.Add(time.Duration(2*(16*k+j)+s) * time.Second)
						b.Cols.AppendRecord(&r)
					}
					ch <- shardBatch{batch: b}
				}
				close(ch)
				m.streams = append(m.streams, &shardStream{ch: ch})
			}
			t.Cleanup(func() {
				for _, s := range m.streams {
					for s.advance() {
					}
				}
			})
			m.prime()
			return func() {
				if _, _, lo, hi, ok := m.next(); !ok || hi-lo != 1 {
					t.Fatalf("merge.next = [%d, %d), %t; want one row", lo, hi, ok)
				}
			}
		},
	}})
}

// shiftCols moves every row of c by step seconds.
func shiftCols(c *flow.Columns, step int64) {
	for i := range c.StartSec {
		c.StartSec[i] += step
		c.EndSec[i] += step
	}
}

// runAllocRows measures every row. AllocsPerRun makes one warm-up call,
// then divides the allocations of runs calls by runs, rounding down: a
// per-call allocation always shows, one amortized over more calls than
// runs never does.
func runAllocRows(t *testing.T, rows []allocRow) {
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if r.pooled && raceEnabled {
				t.Skip("under -race sync.Pool.Put drops a quarter of its items, so pooled buffers allocate at random; the non-race run gates this row")
			}
			call := r.setup(t)
			if got := testing.AllocsPerRun(r.runs, call); got != r.budget {
				t.Errorf("%v allocate %v times per call, want %v (%s)", r.covers, got, r.budget, r.reason)
			}
		})
	}
}
