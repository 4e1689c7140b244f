package flowstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"booterscope/internal/chaos"
	"booterscope/internal/flow"
	"booterscope/internal/pipe"
)

// ledgerErr reports a Stats snapshot that breaks the store's accounting
// invariant.
func ledgerErr(st Stats) error {
	if st.RecordsAppended != st.RecordsDurable+st.RecordsBuffered+st.RecordsDropped {
		return fmt.Errorf("ledger broken: %+v", st)
	}
	return nil
}

// countScan scans everything sealed in s and counts it.
func countScan(t *testing.T, s *Store) uint64 {
	t.Helper()
	var n uint64
	if _, err := s.Scan(Query{}, func(*flow.Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSealFsyncFault: a seal whose fsync fails — or whose last block
// WriteFault refuses, so it is never fsynced — reports it from the Seal or
// Close that sealed it, keeps the segment out of the manifest as any
// failed seal does, and leaves the ledger exact; the blocks written before
// the fault are the next Open's to recover.
func TestSealFsyncFault(t *testing.T) {
	recs := genFlows(rand.New(rand.NewSource(31)), testBase, 1, 500)
	appendTo := func(fp *chaos.Failpoint) *Store {
		t.Helper()
		s, err := Open(t.TempDir(), Options{Shards: 1, BlockRecords: 128, WriteFault: fp})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append(recs); err != nil {
			t.Fatal(err)
		}
		return s
	}

	// A clean run: three full blocks and the partial one, then the fsync.
	probe := chaos.NewFailpoint()
	clean := appendTo(probe)
	if err := clean.Close(); err != nil {
		t.Fatal(err)
	}
	ops := probe.Ops()
	if ops != 5 {
		t.Fatalf("clean Append+Close made %d fault-visible ops, want 4 block writes and 1 fsync", ops)
	}

	faults := []struct {
		name    string
		op      uint64
		durable uint64 // records written before the fault
	}{
		{"fsync", ops - 1, uint64(len(recs))},
		{"last-block", ops - 2, uint64(len(recs) / 128 * 128)},
	}
	for _, fault := range faults {
		for _, end := range []string{"Seal", "Close"} {
			t.Run(fault.name+"/"+end, func(t *testing.T) {
				s := appendTo(chaos.NewFailpoint(fault.op))
				dir := s.Dir()
				var err error
				if end == "Seal" {
					err = s.Seal()
				} else {
					err = s.Close()
				}
				if !errors.Is(err, chaos.ErrInjected) {
					t.Fatalf("%s with a failing seal returned %v, want the injected fault", end, err)
				}
				if segs := s.Segments(); len(segs) != 0 {
					t.Fatalf("segment whose seal failed is in the manifest: %+v", segs)
				}
				st := s.Stats()
				if err := ledgerErr(st); err != nil {
					t.Fatal(err)
				}
				if st.RecordsDurable != fault.durable || st.SegmentsSealed != 0 {
					t.Fatalf("stats after the failed seal = %+v, want %d records written and none sealed", st, fault.durable)
				}
				if err := s.Close(); err != nil {
					t.Fatalf("Close after the fault was reported: %v", err)
				}
				re, err := Open(dir, Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				if rec := re.Recovery(); rec.RecoveredSegments != 1 || rec.RecoveredRecords != fault.durable || rec.TornSegments != 0 {
					t.Fatalf("recovery = %+v, want the one unsealed segment's %d records adopted", rec, fault.durable)
				}
				if n := countScan(t, re); n != fault.durable {
					t.Fatalf("reopened store scans %d records, want %d", n, fault.durable)
				}
			})
		}
	}
}

// TestReadersDuringAppend runs Append on one goroutine while others scan,
// list segments, take Stats and read the bytes-on-disk gauge — the
// concurrency the flushers add, for the race detector. Every Stats is
// exact, and every Segments is the previous one plus segments in seal
// order: a shard's partitions ascend, as its time-ordered input does.
func TestReadersDuringAppend(t *testing.T) {
	recs := genFlows(rand.New(rand.NewSource(37)), testBase, 6, 24000)
	s, err := Open(t.TempDir(), Options{Shards: 3, BlockRecords: 256, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var prev []SegmentEntry
	readers := []func() error{
		func() error { return ledgerErr(s.Stats()) },
		func() error {
			segs := s.Segments()
			if len(segs) < len(prev) {
				return fmt.Errorf("Segments shrank from %d to %d entries", len(prev), len(segs))
			}
			for i := range prev {
				if segs[i] != prev[i] {
					return fmt.Errorf("Segments entry %d changed from %+v to %+v", i, prev[i], segs[i])
				}
			}
			last := map[int]int64{}
			for _, e := range segs {
				if p, ok := last[e.Shard]; ok && e.PartitionSec <= p {
					return fmt.Errorf("shard %d sealed partition %d after %d", e.Shard, e.PartitionSec, p)
				}
				last[e.Shard] = e.PartitionSec
			}
			prev = segs
			return nil
		},
		func() error {
			_, err := s.Scan(Query{}, func(*flow.Record) error { return nil })
			return err
		},
		func() error {
			_, err := s.ScanOrdered(Query{}, func(b *pipe.Batch) error { b.Release(); return nil })
			return err
		},
		func() error { bytesOnDisk(); return nil },
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, read := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := read(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for off := 0; off < len(recs); off += 700 {
		if err := s.Append(recs[off:min(off+700, len(recs))]); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()

	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.RecordsDurable != uint64(len(recs)) || st.RecordsDropped != 0 || st.RecordsBuffered != 0 {
		t.Fatalf("after Seal: %+v, want all %d records durable", st, len(recs))
	}
	var listed uint64
	for _, e := range s.Segments() {
		listed += e.Bytes
	}
	s.acct.Lock()
	onDisk := s.onDisk
	s.acct.Unlock()
	if onDisk != listed {
		t.Fatalf("bytes-on-disk share %d, manifest lists %d", onDisk, listed)
	}
	if n := countScan(t, s); n != uint64(len(recs)) {
		t.Fatalf("scan after Seal read %d records, want %d", n, len(recs))
	}
}

// staleStream draws n records over one day of one-hour partitions, out
// of start order within each minute or so (so blocks need the sort), with
// now and then a late record for a partition already sealed as stale.
func staleStream(rng *rand.Rand, n int) []flow.Record {
	recs := genFlows(rng, testBase, 1, n)
	for i := range recs {
		if rng.Intn(400) == 0 {
			back := time.Duration(2+rng.Intn(6)) * time.Hour
			recs[i].Start, recs[i].End = recs[i].Start.Add(-back), recs[i].End.Add(-back)
		}
	}
	return recs
}

// storeDigests builds a store in a fresh directory with fill, closes it,
// and returns the SHA-256 of every file in it by relative path.
func storeDigests(t *testing.T, opts Options, fill func(*Store) error) map[string]string {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := fill(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sums := make(map[string]string)
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		sum := sha256.Sum256(b)
		sums[rel] = hex.EncodeToString(sum[:])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sums
}

// TestFlushedBytesIndependentOfScheduling: what the flushers write cannot
// depend on when they run. Random stores — 1 to 4 shards, Append calls of
// 1 to 5000 records, unsorted blocks, partitions going stale mid-stream,
// Stats and Segments between calls — must leave every segment file and
// the manifest byte-identical to one Append of the same records, at
// GOMAXPROCS 1 and 2.
func TestFlushedBytesIndependentOfScheduling(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rng := rand.New(rand.NewSource(int64(43 + procs)))
			for trial := 0; trial < 4; trial++ {
				opts := Options{Shards: 1 + rng.Intn(4), BlockRecords: 64 << rng.Intn(4), Partition: time.Hour, NoSync: true}
				recs := staleStream(rng, 8000+rng.Intn(8000))
				want := storeDigests(t, opts, func(s *Store) error { return s.Append(recs) })
				got := storeDigests(t, opts, func(s *Store) error {
					for off := 0; off < len(recs); {
						n := 1 + rng.Intn([]int{10, 500, 5000}[rng.Intn(3)])
						if err := s.Append(recs[off:min(off+n, len(recs))]); err != nil {
							return err
						}
						off += n
						switch rng.Intn(4) {
						case 0:
							if err := ledgerErr(s.Stats()); err != nil {
								return err
							}
						case 1:
							s.Segments()
						}
					}
					return nil
				})
				if len(got) != len(want) || len(want) < 3 {
					t.Fatalf("trial %d %+v: %d files, one-call run wrote %d", trial, opts, len(got), len(want))
				}
				for rel, sum := range want {
					if got[rel] != sum {
						t.Fatalf("trial %d %+v: %s differs from the one-call run", trial, opts, rel)
					}
				}
			}
		})
	}
}

// TestSealNeverWaits holds a seal's fsync on the syncer and shows that
// nothing on Append's path waits for it: the Append that seals returns,
// as do the Appends behind it, until the flusher itself stops — sealQueue
// further seals wait for the held syncer, and the flusher holds the next
// — and flushQueue blocks are in flight behind it. Only the next block
// waits, and the wait is counted. A quiescent point waits for the fsync,
// and lists each segment only once its fsync has run.
func TestSealNeverWaits(t *testing.T) {
	const blockRecords = 8
	s, err := Open(t.TempDir(), Options{Shards: 1, BlockRecords: blockRecords, Partition: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan struct{}, 64) // one entry per fsync reached
	release := make(chan struct{})
	var synced atomic.Int64 // fsyncs let through
	s.syncHook = func() {
		held <- struct{}{}
		<-release
		synced.Add(1)
	}
	released := false
	defer func() {
		if !released {
			close(release)
		}
		s.Close()
	}()

	rng := rand.New(rand.NewSource(71))
	// at draws n records starting in the given hour, in start order.
	at := func(hour, n int) []flow.Record {
		recs := genFlows(rng, testBase, 1, n)
		for i := range recs {
			recs[i].Start = testBase.Add(time.Duration(hour)*time.Hour + time.Duration(i)*time.Second)
			recs[i].End = recs[i].Start.Add(time.Second)
		}
		return recs
	}
	appendAsync := func(recs []flow.Record) <-chan error {
		done := make(chan error, 1)
		go func() { done <- s.Append(recs) }()
		return done
	}
	returns := func(done <-chan error, what string) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s waited for the held fsync", what)
		}
	}

	returns(appendAsync(at(0, 3)), "Append opening hour 0")
	// Hour 2 seals hour 0, whose fsync the hook then holds.
	returns(appendAsync(at(2, 3)), "Append sealing hour 0")
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("hour 0's seal never reached its fsync")
	}
	// Each further partition seals the one before; sealQueue of those
	// seals wait for the syncer and the flusher holds the next.
	hour := 2
	for range sealQueue + 1 {
		hour += 2
		returns(appendAsync(at(hour, 3)), fmt.Sprintf("Append sealing hour %d", hour-2))
	}
	waits := metricIngestWait.Snapshot().Count
	// The open partition's blocks queue behind the held seal: flushQueue
	// of them take the tokens, and the next waits.
	for i := range flushQueue {
		returns(appendAsync(at(hour, blockRecords)), fmt.Sprintf("Append handing off block %d", i+1))
	}
	blocked := appendAsync(at(hour, blockRecords))
	select {
	case err := <-blocked:
		t.Fatalf("Append returned (%v) with %d blocks in flight behind a stopped flusher", err, flushQueue)
	case <-time.After(100 * time.Millisecond):
	}
	listed := make(chan []SegmentEntry, 1)
	go func() { listed <- s.Segments() }()
	select {
	case segs := <-listed:
		t.Fatalf("Segments returned %d entries while a seal's fsync was held", len(segs))
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	released = true
	returns(blocked, "Append waiting for a block token")
	if got := metricIngestWait.Snapshot().Count - waits; got != 1 {
		t.Errorf("flowstore_ingest_wait_seconds counted %d waits, want 1", got)
	}
	segs := <-listed
	if n := synced.Load(); int64(len(segs)) > n {
		t.Fatalf("Segments listed %d segments after %d fsyncs", len(segs), n)
	}
	if len(segs) != sealQueue+2 {
		t.Fatalf("Segments listed %d segments, want the %d sealed", len(segs), sealQueue+2)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	segs = s.Segments()
	if n := synced.Load(); len(segs) != sealQueue+3 || int64(len(segs)) != n {
		t.Fatalf("after Seal: %d segments listed, %d fsyncs run; want %d of each", len(segs), n, sealQueue+3)
	}
	st := s.Stats()
	if want := uint64(3*(sealQueue+3) + (flushQueue+1)*blockRecords); st.RecordsDurable != want || ledgerErr(st) != nil {
		t.Fatalf("stats %+v, want %d records durable", st, want)
	}
}
