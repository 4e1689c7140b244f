package flowstore

import (
	"errors"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/pipe"
)

// partitionQueries are the queries the partition scan's accounting is
// pinned on: everything, From/To bounds that prune whole segments and
// blocks (both sides, each side alone), a projected pushdown, and a
// drilldown that decodes only its predicate's columns.
func partitionQueries() []Query {
	return []Query{
		{},
		{From: testBase.Add(48 * time.Hour), To: testBase.Add(96 * time.Hour)},
		{From: testBase.Add(36 * time.Hour)},
		{To: testBase.Add(30 * time.Hour)},
		{Protocols: []uint8{17}, PortsEither: []uint16{123, 53}, Project: ColDstAddr | ColCounters | ColStartSec},
		{From: testBase.Add(24 * time.Hour), To: testBase.Add(72 * time.Hour), Dst: netip.MustParseAddr("198.51.15.1")},
	}
}

// TestScanPartitionsMatchesShardScan: at any worker count the partition
// scan accounts exactly what the per-shard scanners it replaced did —
// the counts below were taken from ScanBatches on the commit before
// the partition scan, where one goroutine per shard fed a shared
// channel — and hands out the ordered scan's record multiset, each
// worker whole partitions no other worker sees.
func TestScanPartitionsMatchesShardScan(t *testing.T) {
	s := buildTestStore(t, genFlows(rand.New(rand.NewSource(37)), testBase, 6, 12_000), 3)
	golden := []ScanStats{
		{SegmentsScanned: 19, BlocksScanned: 107, RecordsScanned: 12000, RecordsMatched: 12000, ColumnsDecoded: 1819, ColumnsTotal: 1819},
		{SegmentsScanned: 6, SegmentsPruned: 13, BlocksScanned: 35, BlocksPruned: 72, RecordsScanned: 3999, RecordsMatched: 3999, ColumnsDecoded: 595, ColumnsTotal: 595},
		{SegmentsScanned: 16, SegmentsPruned: 3, BlocksScanned: 83, BlocksPruned: 24, RecordsScanned: 9232, RecordsMatched: 9000, ColumnsDecoded: 1411, ColumnsTotal: 1411},
		{SegmentsScanned: 6, SegmentsPruned: 13, BlocksScanned: 24, BlocksPruned: 83, RecordsScanned: 2768, RecordsMatched: 2500, ColumnsDecoded: 408, ColumnsTotal: 408},
		{SegmentsScanned: 19, BlocksScanned: 106, BlocksPruned: 1, RecordsScanned: 11999, RecordsMatched: 2505, ColumnsDecoded: 1060, ColumnsTotal: 1802},
		{SegmentsScanned: 6, SegmentsPruned: 13, BlocksScanned: 35, BlocksPruned: 72, RecordsScanned: 4000, ColumnsDecoded: 140, ColumnsTotal: 595},
	}
	for qi, q := range partitionQueries() {
		// Both sides build records with Columns.Record, so whole records
		// compare as map keys.
		want := map[flow.Record]int{}
		if q.Project == 0 { // a projected batch's omitted columns are garbage
			if _, err := s.Scan(q, func(r *flow.Record) error { want[*r]++; return nil }); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 2, 3, 8} {
			var mu sync.Mutex
			got := map[flow.Record]int{}
			owner := map[int64]int{} // partition -> the worker that read it
			stats, err := s.ScanPartitions(q, workers, func(w int, b *pipe.Batch) error {
				defer b.Release()
				if w < 0 || w >= workers {
					t.Errorf("query %d: batch for worker %d of %d", qi, w, workers)
				}
				mu.Lock()
				defer mu.Unlock()
				for i, sec := range b.Cols.StartSec {
					day := sec - sec%int64(defaultPartition/time.Second)
					if o, ok := owner[day]; ok && o != w {
						t.Errorf("query %d, %d workers: partition %d read by workers %d and %d", qi, workers, day, o, w)
					}
					owner[day] = w
					if q.Project == 0 {
						got[b.Cols.Record(i)]++
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("query %d, %d workers: %v", qi, workers, err)
			}
			if stats != golden[qi] {
				t.Errorf("query %d, %d workers: stats %+v, want %+v", qi, workers, stats, golden[qi])
			}
			if q.Project == 0 && len(got) != len(want) {
				t.Errorf("query %d, %d workers: %d distinct records, ordered scan %d", qi, workers, len(got), len(want))
			}
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("query %d, %d workers: record multiset diverges at %+v: %d, ordered %d", qi, workers, k, got[k], n)
				}
			}
		}
	}
}

// TestScanPartitionsStopsEveryWorker: the first error a worker meets —
// from emit, or from a corrupt segment — is latched, stops every other
// worker at its next segment or batch, and is returned; no pooled batch
// is left behind. Stated without a measured clock: every successful
// emit takes a pause, so peers that kept going after the failure decode
// most of the thirty day partitions in the time stopped ones decode a
// few.
func TestScanPartitionsStopsEveryWorker(t *testing.T) {
	recs := genFlows(rand.New(rand.NewSource(41)), testBase, 30, 30_000)
	s := buildTestStore(t, recs, 3)
	total := uint64(len(recs))
	inFlight := batchesInFlight()
	stop := errors.New("stop")
	const pause = 200 * time.Microsecond

	check := func(name string, workers int, stats ScanStats, err error, want string, before float64) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s, %d workers: err = %v, want one containing %q", name, workers, err, want)
		}
		if stats.RecordsScanned >= total/2 {
			t.Errorf("%s, %d workers: %d of %d records decoded after the failure — the other workers were not stopped",
				name, workers, stats.RecordsScanned, total)
		}
		if after := inFlight(); after != before {
			t.Errorf("%s, %d workers: pipe_batches_in_flight %v -> %v", name, workers, before, after)
		}
	}
	for _, workers := range []int{1, 2, 4} {
		// emit fails once, on its first call; every later call succeeds.
		before := inFlight()
		var calls atomic.Int64
		stats, err := s.ScanPartitions(Query{}, workers, func(_ int, b *pipe.Batch) error {
			b.Release()
			if calls.Add(1) == 1 {
				return stop
			}
			time.Sleep(pause)
			return nil
		})
		check("emit error", workers, stats, err, stop.Error(), before)
	}

	// Corrupt the first partition's shard-0 segment: whichever worker
	// claims that partition fails at once.
	victim := filepath.Join(s.Dir(), "shard-00", s.Segments()[0].File)
	pristine, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), pristine...)
	bad[0] ^= 0xff // segment magic
	if err := os.WriteFile(victim, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	defer os.WriteFile(victim, pristine, 0o644)
	for _, workers := range []int{1, 2, 4} {
		before := inFlight()
		stats, err := s.ScanPartitions(Query{}, workers, func(_ int, b *pipe.Batch) error {
			b.Release()
			time.Sleep(pause)
			return nil
		})
		check("corrupt segment", workers, stats, err, "bad segment magic", before)
	}
}

// TestScanPartitionsGoroutineBound: a scan runs on at most workers
// goroutines, the caller's among them, however many shards and
// partitions the store has.
func TestScanPartitionsGoroutineBound(t *testing.T) {
	s := buildTestStore(t, genFlows(rand.New(rand.NewSource(43)), testBase, 12, 12_000), 4)
	for _, workers := range []int{1, 2, 3} {
		base := runtime.NumGoroutine()
		var mu sync.Mutex
		peak := 0
		seen := map[int]bool{}
		if _, err := s.ScanPartitions(Query{}, workers, func(w int, b *pipe.Batch) error {
			b.Release()
			mu.Lock()
			peak = max(peak, runtime.NumGoroutine()-base)
			seen[w] = true
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if peak > workers-1 {
			t.Errorf("%d workers: %d goroutines beside the caller's during the scan, want at most %d", workers, peak, workers-1)
		}
		if len(seen) > workers {
			t.Errorf("%d workers: emit saw %d worker indexes", workers, len(seen))
		}
	}
}
