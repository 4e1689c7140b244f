package flowstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/pipe"
)

// orderedFixture builds a random sealed store meant to be awkward for
// an ordered scan: 1–5 shards, small blocks, records spread over three
// day partitions with most start times on a handful of whole seconds
// (ties within and across shards), appended in several sealed
// instalments (several segments per partition) that are time-sorted,
// shuffled, or shuffled in chunks (blocks that overlap their
// neighbours).
func orderedFixture(t *testing.T, rng *rand.Rand) (*Store, []flow.Record) {
	t.Helper()
	s, err := Open(t.TempDir(), Options{Shards: 1 + rng.Intn(5), BlockRecords: 16 + rng.Intn(180), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	recs := make([]flow.Record, 500+rng.Intn(4000))
	for i := range recs {
		start := testBase.Add(time.Duration(rng.Intn(3))*24*time.Hour + time.Duration(rng.Intn(40))*time.Second)
		if rng.Intn(3) == 0 {
			start = start.Add(time.Duration(rng.Intn(4)) * 250 * time.Millisecond)
		}
		recs[i] = flow.Record{
			Key: flow.Key{
				Src:      netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
				Dst:      netip.AddrFrom4([4]byte{192, 0, 2, byte(rng.Intn(6))}),
				SrcPort:  uint16(rng.Intn(1 << 16)),
				DstPort:  []uint16{53, 123, 443}[rng.Intn(3)],
				Protocol: []uint8{6, 17}[rng.Intn(2)],
			},
			Packets: uint64(i + 1), Bytes: uint64(rng.Intn(1 << 20)),
			Start: start, End: start.Add(time.Duration(rng.Intn(90)) * time.Second),
			SrcAS: rng.Uint32(), DstAS: rng.Uint32(), SamplingRate: uint32(1 + rng.Intn(3)),
		}
	}
	switch rng.Intn(3) {
	case 0:
		slices.SortStableFunc(recs, func(a, b flow.Record) int { return a.Start.Compare(b.Start) })
	case 1: // sorted but for local disorder: neighbouring blocks overlap
		slices.SortStableFunc(recs, func(a, b flow.Record) int { return a.Start.Compare(b.Start) })
		for lo := 0; lo < len(recs); lo += 300 {
			chunk := recs[lo:min(lo+300, len(recs))]
			rng.Shuffle(len(chunk), func(i, j int) { chunk[i], chunk[j] = chunk[j], chunk[i] })
		}
	}
	for rest := recs; len(rest) > 0; {
		n := min(len(rest), 100+rng.Intn(2000))
		if err := s.Append(rest[:n]); err != nil {
			t.Fatal(err)
		}
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	return s, recs
}

// orderedQueries are the predicates the reference comparison runs
// under: everything, and several partial selections.
func orderedQueries(rng *rand.Rand) []Query {
	from := testBase.Add(time.Duration(rng.Intn(20))*time.Second + 250*time.Millisecond)
	return []Query{
		{},
		{Dst: netip.AddrFrom4([4]byte{192, 0, 2, byte(rng.Intn(6))})},
		{DstPorts: []uint16{123}, Protocols: []uint8{17}},
		{From: from, To: from.Add(24*time.Hour + 7*time.Second)},
		{PortsEither: []uint16{53, 443}, From: testBase.Add(24 * time.Hour)},
	}
}

func sameRows(t *testing.T, what string, got, want []flow.Record, gotSrc, wantSrc []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if !recordEqual(&got[i], &want[i]) || gotSrc != nil && gotSrc[i] != wantSrc[i] {
			t.Fatalf("%s: row %d differs from the reference merge:\n got  %+v\n want %+v", what, i, got[i], want[i])
		}
	}
}

// TestOrderedScanMatchesReference: over random awkward stores and
// predicates, the columnar ordered scan — as Scan's records, as
// ScanOrdered's batches, and across stores as MergeScan's runs — is the
// row-materialising scan it replaced (reference_test.go), row for row,
// field for field, store ordinal for store ordinal.
func TestOrderedScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20240924))
	for trial := 0; trial < 12; trial++ {
		var stores []*Store
		for range 1 + trial%3 {
			s, _ := orderedFixture(t, rng)
			stores = append(stores, s)
		}
		for qi, q := range orderedQueries(rng) {
			what := fmt.Sprintf("trial %d, query %d", trial, qi)
			var refs []RecordStream
			for _, s := range stores {
				want := refOrderedScan(t, s, q)
				if !slices.EqualFunc(want, refScan(t, s, q), func(a, b flow.Record) bool { return recordEqual(&a, &b) }) {
					t.Fatalf("%s: the two references disagree", what)
				}
				refs = append(refs, &sliceStream{recs: want, failAt: -1})

				var scanned, batched []flow.Record
				stats, err := s.Scan(q, func(r *flow.Record) error { scanned = append(scanned, *r); return nil })
				if err != nil {
					t.Fatal(err)
				}
				sameRows(t, what+", Scan", scanned, want, nil, nil)
				if stats.RecordsMatched != uint64(len(want)) {
					t.Fatalf("%s: RecordsMatched %d, %d rows", what, stats.RecordsMatched, len(want))
				}
				if _, err := s.ScanOrdered(q, func(b *pipe.Batch) error {
					if n := b.Len(); n == 0 || n > 2*pipe.DefaultBatchSize {
						t.Errorf("%s: ScanOrdered emitted a batch of %d rows", what, n)
					}
					batched = b.Cols.MaterializeAppend(batched)
					b.Release()
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				sameRows(t, what+", ScanOrdered", batched, want, nil, nil)
			}

			var want, got []flow.Record
			var wantFrom, gotFrom []int
			if err := refMerge(refs, func(i int, r *flow.Record) error {
				want, wantFrom = append(want, *r), append(wantFrom, i)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := MergeScan(stores, q, func(i int, cols *flow.Columns, lo, hi int) error {
				for row := lo; row < hi; row++ {
					got, gotFrom = append(got, cols.Record(row)), append(gotFrom, i)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			sameRows(t, what+", MergeScan", got, want, gotFrom, wantFrom)
		}
	}
}

// TestOrderedScanHonoursProject: an ordered scan decodes its merge key
// and the caller's columns, no others, and what it does decode is what
// the unprojected scan delivers.
func TestOrderedScanHonoursProject(t *testing.T) {
	s, _ := orderedFixture(t, rand.New(rand.NewSource(5)))
	var full []flow.Record
	fullStats, err := s.Scan(Query{}, func(r *flow.Record) error { full = append(full, *r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if fullStats.ColumnsDecoded != fullStats.ColumnsTotal {
		t.Fatalf("Scan decoded %d of %d columns, want all", fullStats.ColumnsDecoded, fullStats.ColumnsTotal)
	}
	i := 0
	stats, err := s.ScanOrdered(Query{Project: ColDstAddr | ColCounters}, func(b *pipe.Batch) error {
		defer b.Release()
		c := b.Cols
		for row := 0; row < c.Len(); row, i = row+1, i+1 {
			if want := &full[i]; c.Record(row).Dst != want.Dst || c.Packets[row] != want.Packets || c.Bytes[row] != want.Bytes ||
				c.Sampling[row] != want.SamplingRate || !time.Unix(c.StartSec[row], int64(c.StartNs[row])).Equal(want.Start) {
				t.Fatalf("row %d: projected columns differ from the full scan's", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(full) {
		t.Fatalf("projected scan delivered %d rows, full scan %d", i, len(full))
	}
	// flags, two destination halves, three counters, two start columns.
	if want := uint64(8 * stats.BlocksScanned); stats.ColumnsDecoded != want {
		t.Fatalf("projected ordered scan decoded %d columns over %d blocks, want %d", stats.ColumnsDecoded, stats.BlocksScanned, want)
	}
}

// TestOrderedScanSlabBound: over time-sorted ingest the ordered scan
// streams a partition block by block. One partition of well over 64
// blocks per shard must never show up as one slab, and with the
// consumer stalled the scanners stop after a fixed number of pooled
// slabs each: the pending one, one being split off it, two queued, and
// the one the merge is reading.
func TestOrderedScanSlabBound(t *testing.T) {
	const (
		blockRecords  = 64
		slabsPerShard = 5 // pending + split-off rest + 2 queued + the merge's head
		slabsPerScan  = 2 // ScanOrdered's output slab + the batch the consumer holds
	)
	build := func(shards int) *Store {
		s, err := Open(t.TempDir(), Options{Shards: shards, BlockRecords: blockRecords, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		recs := make([]flow.Record, 0, 70*blockRecords*shards)
		for i := 0; i < cap(recs); i++ {
			// 40 records a second: neighbouring blocks share their
			// boundary second, as a busy collector's do.
			recs = append(recs, tieRecord(i, testBase.Add(time.Duration(i)*25*time.Millisecond)))
		}
		if err := s.Append(recs); err != nil {
			t.Fatal(err)
		}
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		for _, e := range s.Segments() {
			if e.Blocks < 64 {
				t.Fatalf("fixture: segment %s has %d blocks, want at least 64 in the one partition", e.File, e.Blocks)
			}
		}
		return s
	}

	// One shard: the merge hands slabs through whole, so a run is a slab.
	if _, err := MergeScan([]*Store{build(1)}, Query{}, func(_ int, _ *flow.Columns, lo, hi int) error {
		if hi-lo > 2*blockRecords {
			t.Fatalf("a %d-row slab from %d-row blocks: the scanner buffered instead of streaming", hi-lo, blockRecords)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	const shards = 3
	s := build(shards)
	inFlight := batchesInFlight()
	before := inFlight()
	stalled, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		first := true
		_, err := s.ScanOrdered(Query{}, func(b *pipe.Batch) error {
			if first {
				first = false
				close(stalled)
				<-release
			}
			b.Release()
			return nil
		})
		done <- err
	}()
	<-stalled
	// The scanners run ahead until every one of them blocks on a full
	// queue; give them until the count has stopped moving.
	high, still := 0.0, 0
	for deadline := time.Now().Add(5 * time.Second); still < 50 && time.Now().Before(deadline); {
		if v := inFlight() - before; v > high {
			high, still = v, 0
		} else {
			still++
		}
		runtime.Gosched()
		time.Sleep(200 * time.Microsecond)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if limit := float64(slabsPerShard*shards + slabsPerScan); high > limit {
		t.Fatalf("%v pooled slabs in flight behind a stalled consumer, bound %v", high, limit)
	}
	if high < shards {
		t.Fatalf("only %v slabs in flight: the scanners never ran ahead, the bound was not exercised", high)
	}
	if after := inFlight(); after != before {
		t.Fatalf("pipe_batches_in_flight %v -> %v after the scan", before, after)
	}
}

// TestOrderedScanRejectsLyingIndex: a block whose sparse index promises
// later start times than its rows hold lets the scanner send rows it
// should have held back. Scans do not verify sealed CRCs, so this is
// what a flipped index bit looks like; the scan must fail, not
// misorder.
func TestOrderedScanRejectsLyingIndex(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Shards: 1, BlockRecords: 8, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var recs []flow.Record
	for _, sec := range []int{8, 0} { // the second block holds the earlier rows
		for i := 0; i < 8; i++ {
			recs = append(recs, tieRecord(sec+i, testBase.Add(time.Duration(sec+i)*time.Second)))
		}
	}
	if err := s.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	var order []uint64
	if _, err := s.Scan(Query{}, func(r *flow.Record) error { order = append(order, r.Packets); return nil }); err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(order) || len(order) != len(recs) {
		t.Fatalf("honest index: scanned %v", order)
	}

	path := filepath.Join(s.Dir(), "shard-00", s.Segments()[0].File)
	seg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	second := len(segMagic) + frameHeadLen + int(binary.BigEndian.Uint32(seg[len(segMagic):]))
	minStart := seg[second+frameHeadLen+4:] // blockIndex.MinStartSec
	binary.BigEndian.PutUint64(minStart, uint64(testBase.Unix()+100))
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Scan(Query{}, func(*flow.Record) error { return nil }); !errors.Is(err, errIndexBelowRows) {
		t.Fatalf("second block's index claims a minimum its rows undercut: scan error = %v, want errIndexBelowRows", err)
	}
}
