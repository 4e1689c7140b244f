package flowstore

import (
	"errors"
	"net/netip"
	"slices"
	"sort"
	"testing"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/pipe"
	"booterscope/internal/telemetry"
)

// tieRecord builds a record whose key varies with n (spreading records
// across shards) and whose start time is fixed by ts.
func tieRecord(n int, ts time.Time) flow.Record {
	return flow.Record{
		Key: flow.Key{
			Src:      netip.AddrFrom4([4]byte{10, 0, byte(n >> 8), byte(n)}),
			Dst:      netip.AddrFrom4([4]byte{192, 0, byte(n >> 8), byte(n)}),
			SrcPort:  uint16(1024 + n),
			DstPort:  123,
			Protocol: 17,
		},
		Packets:      uint64(n + 1),
		Bytes:        uint64((n + 1) * 100),
		Start:        ts,
		End:          ts.Add(time.Minute),
		SamplingRate: 1,
	}
}

// TestScanTieBreakDeterministic pins the merged scan order for equal
// timestamps: ascending Start, then shard index, then ingest order
// within the shard. The expectation is computed independently with a
// stable sort keyed on (Start, shard) over the append sequence — if
// the merge's tie-break ever regresses to anything order-unstable this
// comparison breaks.
func TestScanTieBreakDeterministic(t *testing.T) {
	const shards = 4
	st, err := Open(t.TempDir(), Options{Shards: shards, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	base := time.Date(2018, 4, 1, 12, 0, 0, 0, time.UTC)
	var appended []flow.Record
	// Three distinct timestamps, many records per timestamp, appended
	// in interleaved order so every shard holds colliding ties.
	for round := 0; round < 3; round++ {
		for i := 0; i < 48; i++ {
			ts := base.Add(time.Duration(i%3) * time.Minute)
			appended = append(appended, tieRecord(round*100+i, ts))
		}
	}
	if err := st.Append(appended); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}

	// Expected order: stable sort by (Start, shard) preserves append
	// order as the tertiary key.
	expected := append([]flow.Record(nil), appended...)
	sort.SliceStable(expected, func(a, b int) bool {
		if !expected[a].Start.Equal(expected[b].Start) {
			return expected[a].Start.Before(expected[b].Start)
		}
		return shardOf(&expected[a], shards) < shardOf(&expected[b], shards)
	})

	var got []flow.Record
	if _, err := st.Scan(Query{}, func(r *flow.Record) error {
		got = append(got, *r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(expected) {
		t.Fatalf("scanned %d records, want %d", len(got), len(expected))
	}
	for i := range got {
		if !recordEqual(&got[i], &expected[i]) {
			t.Fatalf("record %d out of order:\n got  %+v\n want %+v", i, got[i], expected[i])
		}
	}
}

// TestSegmentOrderIsBySequence: a shard writer's sequence number counts
// every seal it ever made (the daemon seals at each checkpoint) and
// outgrows the name's four-digit padding, after which file names no
// longer sort in seal order. Manifest and scan must still put a
// partition's segments in the order they were written — it is the order
// equal timestamps come back in.
func TestSegmentOrderIsBySequence(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Shards: 1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.shards[0].segSeq = 9998
	ts := time.Date(2018, 4, 6, 0, 0, 0, 0, time.UTC)
	for n := 0; n < 4; n++ {
		if err := st.Append([]flow.Record{tieRecord(n, ts)}); err != nil {
			t.Fatal(err)
		}
		if err := st.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	var files []string
	for _, e := range st.Segments() {
		files = append(files, e.File)
	}
	part := ts.Unix()
	want := []string{segName(part, 9998), segName(part, 9999), segName(part, 10000), segName(part, 10001)}
	if !slices.Equal(files, want) {
		t.Fatalf("manifest order %v, want %v", files, want)
	}
	var order []uint64
	if _, err := st.Scan(Query{}, func(r *flow.Record) error {
		order = append(order, r.Packets)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []uint64{1, 2, 3, 4}) {
		t.Fatalf("equal timestamps scanned in order %v, want ingest order 1 2 3 4", order)
	}
}

// batchesInFlight reads pipe's pooled-batch gauge: every ordered-scan
// slab is one, so a scan that returns it to its starting value leaked
// none.
func batchesInFlight() func() float64 {
	reg := telemetry.NewRegistry()
	pipe.RegisterTelemetry(reg)
	return reg.Gauge("pipe_batches_in_flight", "").Value
}

// TestCursorMatchesScan pins the three views of the ordered scan to
// each other — MergeScan's runs, ScanOrdered's batches and Scan's
// records: same rows, same order, same accounting.
func TestCursorMatchesScan(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Shards: 4, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	base := time.Date(2018, 4, 2, 0, 0, 0, 0, time.UTC)
	var recs []flow.Record
	for i := 0; i < 500; i++ {
		// Nanosecond offsets plus repeated seconds: a mix of unique and
		// colliding start times.
		ts := base.Add(time.Duration(i%17)*time.Second + time.Duration(i%5)*time.Nanosecond)
		recs = append(recs, tieRecord(i, ts))
	}
	if err := st.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}

	var fromScan, fromRuns, fromBatches []flow.Record
	scanStats, err := st.Scan(Query{}, func(r *flow.Record) error {
		fromScan = append(fromScan, *r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	runStats, err := MergeScan([]*Store{st}, Query{}, func(_ int, cols *flow.Columns, lo, hi int) error {
		for i := lo; i < hi; i++ {
			fromRuns = append(fromRuns, cols.Record(i))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	batchStats, err := st.ScanOrdered(Query{}, func(b *pipe.Batch) error {
		fromBatches = b.Cols.MaterializeAppend(fromBatches)
		b.Release()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(fromScan) != len(recs) || len(fromRuns) != len(recs) || len(fromBatches) != len(recs) {
		t.Fatalf("scan %d, runs %d, batches %d records; appended %d", len(fromScan), len(fromRuns), len(fromBatches), len(recs))
	}
	for i := range fromScan {
		if !recordEqual(&fromScan[i], &fromRuns[i]) || !recordEqual(&fromScan[i], &fromBatches[i]) {
			t.Fatalf("record %d differs between Scan, MergeScan and ScanOrdered", i)
		}
	}
	if scanStats != runStats[0] || scanStats != batchStats {
		t.Fatalf("stats differ: scan %+v runs %+v batches %+v", scanStats, runStats[0], batchStats)
	}
}

// TestCursorCloseEarly: a caller that abandons an ordered scan after a
// few runs gets its error back and every pooled slab is reclaimed.
func TestCursorCloseEarly(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Shards: 4, BlockRecords: 64, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	base := time.Date(2018, 4, 3, 0, 0, 0, 0, time.UTC)
	var recs []flow.Record
	for i := 0; i < 2000; i++ {
		recs = append(recs, tieRecord(i, base.Add(time.Duration(i)*time.Second)))
	}
	if err := st.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}

	inFlight := batchesInFlight()
	before := inFlight()
	enough := errors.New("enough")
	runs, held := 0, 0.0
	stats, err := MergeScan([]*Store{st}, Query{}, func(int, *flow.Columns, int, int) error {
		if runs++; runs == 3 {
			held = inFlight() - before
			return enough
		}
		return nil
	})
	if err != enough || runs != 3 {
		t.Fatalf("abandoned after %d runs: err = %v, want the caller's", runs, err)
	}
	if held == 0 {
		t.Fatal("an open ordered scan holds no pooled slab: the leak check below checks nothing")
	}
	if after := inFlight(); after != before {
		t.Fatalf("pipe_batches_in_flight %v -> %v: an abandoned scan leaked pooled slabs", before, after)
	}
	if stats[0].RecordsScanned == 0 || stats[0].RecordsScanned >= uint64(len(recs)) {
		t.Fatalf("abandoned scan decoded %d of %d records", stats[0].RecordsScanned, len(recs))
	}
}

// sliceStream adapts a record slice (already time-ordered) to the
// reference merge's RecordStream, with an optional terminal error.
type sliceStream struct {
	recs []flow.Record
	pos  int
	err  error
	// failAt, when >= 0, fails the stream after that many records.
	failAt int
}

func (s *sliceStream) Next() (*flow.Record, bool) {
	if s.failAt >= 0 && s.pos >= s.failAt {
		s.err = errors.New("stream failed")
		return nil, false
	}
	if s.pos >= len(s.recs) {
		return nil, false
	}
	r := &s.recs[s.pos]
	s.pos++
	return r, true
}

func (s *sliceStream) Err() error { return s.err }

var errStreamFailed = errors.New("stream failed")

// slabStream is sliceStream for the production merge: the records a
// shard scanner would send, queued as column slabs of slabRows rows (the
// last one short) and followed — when failAt >= 0, after that many
// records — by a failure.
func slabStream(recs []flow.Record, slabRows, failAt int) *shardStream {
	if failAt >= 0 {
		recs = recs[:failAt]
	}
	ch := make(chan shardBatch, len(recs)+1) // every slab and the failure fit: filled before the merge starts
	for len(recs) > 0 {
		b := pipe.NewColsBatch()
		for _, r := range recs[:min(slabRows, len(recs))] {
			b.Cols.AppendRecord(&r)
		}
		recs = recs[b.Len():]
		ch <- shardBatch{batch: b}
	}
	if failAt >= 0 {
		ch <- shardBatch{err: errStreamFailed}
	}
	close(ch)
	return &shardStream{ch: ch}
}

// mergeRows runs the production merge to its end and returns the
// Packets field (tieRecord's n+1) and the stream of every row.
func mergeRows(streams ...*shardStream) (order []uint64, sources []int, err error) {
	m := merge{streams: streams}
	m.prime()
	for {
		src, cols, lo, hi, ok := m.next()
		if !ok {
			for _, s := range streams {
				s.release()
			}
			return order, sources, m.err
		}
		for i := lo; i < hi; i++ {
			order, sources = append(order, cols.Packets[i]), append(sources, src)
		}
	}
}

// TestMergeStreamsTieBreak pins the merge's deterministic order:
// ascending Start, ties broken by stream index, then stream order —
// whatever the slab boundaries.
func TestMergeStreamsTieBreak(t *testing.T) {
	base := time.Date(2018, 4, 4, 0, 0, 0, 0, time.UTC)
	mk := func(n int, ts time.Time) flow.Record { return tieRecord(n, ts) }
	a := []flow.Record{mk(0, base), mk(1, base), mk(2, base.Add(time.Second))}
	b := []flow.Record{mk(10, base), mk(11, base.Add(time.Second)), mk(12, base.Add(2*time.Second))}
	c := []flow.Record{mk(20, base)}

	wantOrder := []uint64{1, 2, 11, 21, 3, 12, 13}
	wantSources := []int{0, 0, 1, 2, 0, 1, 1}
	for slabRows := 1; slabRows <= 3; slabRows++ {
		order, sources, err := mergeRows(slabStream(a, slabRows, -1), slabStream(b, slabRows, -1), slabStream(c, slabRows, -1))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(order, wantOrder) || !slices.Equal(sources, wantSources) {
			t.Fatalf("slabs of %d: got records %v from streams %v, want %v from %v",
				slabRows, order, sources, wantOrder, wantSources)
		}
	}
}

// TestMergeStreamsError: the first stream failure aborts the merge
// immediately — later records from healthy streams are not delivered
// after the failure is observed.
func TestMergeStreamsError(t *testing.T) {
	base := time.Date(2018, 4, 5, 0, 0, 0, 0, time.UTC)
	ok := slabStream([]flow.Record{tieRecord(0, base), tieRecord(1, base.Add(time.Hour))}, 2, -1)
	bad := slabStream([]flow.Record{tieRecord(10, base.Add(time.Minute)), tieRecord(11, base.Add(2*time.Minute))}, 1, 1)
	order, _, err := mergeRows(ok, bad)
	if err != errStreamFailed {
		t.Fatalf("merge over a failing stream returned %v, want the stream's error", err)
	}
	// Records delivered before the failure: stream 0's base record and
	// stream 1's first record. Stream 0's base+1h record sorts after
	// the failure point and must not arrive.
	if len(order) != 2 {
		t.Fatalf("delivered %d records before surfacing the error, want 2", len(order))
	}
}
