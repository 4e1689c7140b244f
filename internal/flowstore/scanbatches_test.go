package flowstore

import (
	"errors"
	"math/rand"
	"testing"

	"booterscope/internal/flow"
	"booterscope/internal/pipe"
)

// buildTestStore writes recs into a fresh sealed store.
func buildTestStore(t *testing.T, recs []flow.Record, shards int) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), Options{Shards: shards, BlockRecords: 128, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(recs); off += 700 {
		end := off + 700
		if end > len(recs) {
			end = len(recs)
		}
		if err := s.Append(recs[off:end]); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatalf("seal: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestScanBatchesMatchesScan: the unordered batch path must return the
// exact record multiset and accounting of the ordered Scan.
func TestScanBatchesMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	recs := genFlows(rng, testBase, 4, 8000)
	s := buildTestStore(t, recs, 3)

	q := Query{}
	want := make(map[string]int, len(recs))
	wantStats, err := s.Scan(q, func(r *flow.Record) error {
		want[recordKey(r)]++
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}

	got := make(map[string]int, len(recs))
	var batches int
	gotStats, err := s.ScanBatches(q, func(b *pipe.Batch) error {
		defer b.Release()
		batches++
		rs := b.Recs
		if b.Cols != nil {
			rs = b.Cols.MaterializeAppend(nil)
		}
		for i := range rs {
			got[recordKey(&rs[i])]++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scan batches: %v", err)
	}
	if batches == 0 {
		t.Fatal("no batches emitted")
	}
	if len(got) != len(want) {
		t.Fatalf("batch scan saw %d distinct records, ordered scan %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("record multiset diverges at %s: batch %d, ordered %d", k, got[k], n)
		}
	}
	if gotStats.RecordsMatched != wantStats.RecordsMatched ||
		gotStats.RecordsScanned != wantStats.RecordsScanned ||
		gotStats.SegmentsScanned != wantStats.SegmentsScanned {
		t.Fatalf("stats diverge:\nbatch   = %+v\nordered = %+v", gotStats, wantStats)
	}
}

// TestScanCancellation is the satellite bugfix test: an error from the
// visitor must abort the scan early — the shard scanners stop decoding
// instead of draining the whole archive — surface the error, and leave
// no pooled slab behind. Both ordered entry points.
func TestScanCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	recs := genFlows(rng, testBase, 8, 16_000)
	s := buildTestStore(t, recs, 3)
	inFlight := batchesInFlight()

	stop := errors.New("stop early")
	before := inFlight()
	seen := 0
	stats, err := s.Scan(Query{}, func(r *flow.Record) error {
		seen++
		if seen >= 10 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("scan error = %v, want %v", err, stop)
	}
	if seen != 10 {
		t.Fatalf("visitor ran %d times after cancelling at 10", seen)
	}
	if stats.RecordsScanned >= uint64(len(recs)) {
		t.Fatalf("cancelled scan still decoded all %d records — early abort not propagated", len(recs))
	}

	batches := 0
	stats, err = s.ScanOrdered(Query{}, func(b *pipe.Batch) error {
		b.Release()
		batches++
		return stop
	})
	if !errors.Is(err, stop) {
		t.Fatalf("ordered scan error = %v, want %v", err, stop)
	}
	if batches != 1 {
		t.Fatalf("emit ran %d times after cancelling on the first batch", batches)
	}
	if stats.RecordsScanned >= uint64(len(recs)) {
		t.Fatalf("cancelled ordered scan still decoded all %d records", len(recs))
	}
	if after := inFlight(); after != before {
		t.Fatalf("pipe_batches_in_flight %v -> %v: cancelled scans leaked pooled slabs", before, after)
	}
}

// TestScanBatchesCancellation: same contract for the batch path.
func TestScanBatchesCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	recs := genFlows(rng, testBase, 8, 16_000)
	s := buildTestStore(t, recs, 3)

	stop := errors.New("stop early")
	batches := 0
	stats, err := s.ScanBatches(Query{}, func(b *pipe.Batch) error {
		b.Release()
		batches++
		return stop
	})
	if !errors.Is(err, stop) {
		t.Fatalf("scan batches error = %v, want %v", err, stop)
	}
	if batches != 1 {
		t.Fatalf("emit ran %d times after cancelling on the first batch", batches)
	}
	if stats.RecordsScanned >= uint64(len(recs)) {
		t.Fatalf("cancelled batch scan still decoded all %d records", len(recs))
	}
}
