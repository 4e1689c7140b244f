package flowstore

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"booterscope/internal/chaos"
	"booterscope/internal/flow"
)

// randRecord draws one record with occasional extreme values so the
// round-trip tests cover the whole representable range, not just the
// comfortable middle.
func randRecord(rng *rand.Rand) flow.Record {
	addr := func() netip.Addr {
		switch rng.Intn(4) {
		case 0: // IPv4
			var b [4]byte
			rng.Read(b[:])
			return netip.AddrFrom4(b)
		case 1: // IPv6
			var b [16]byte
			rng.Read(b[:])
			return netip.AddrFrom16(b)
		case 2: // invalid (e.g. a decoder that failed to parse)
			return netip.Addr{}
		default: // IPv4 edge values
			return netip.AddrFrom4([4]byte{0, 0, 0, 0})
		}
	}
	counter := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.MaxUint64
		default:
			return rng.Uint64() >> uint(rng.Intn(64))
		}
	}
	when := func() time.Time {
		switch rng.Intn(5) {
		case 0: // pre-1970
			return time.Unix(-rng.Int63n(1<<31), int64(rng.Intn(1e9))).UTC()
		case 1: // past the uint32-seconds wrap (year 2106+)
			return time.Unix(1<<33+rng.Int63n(1<<31), int64(rng.Intn(1e9))).UTC()
		default:
			return time.Unix(rng.Int63n(1<<31), int64(rng.Intn(1e9))).UTC()
		}
	}
	start := when()
	return flow.Record{
		Key: flow.Key{
			Src:      addr(),
			Dst:      addr(),
			SrcPort:  uint16(rng.Intn(1 << 16)),
			DstPort:  uint16(rng.Intn(1 << 16)),
			Protocol: uint8(rng.Intn(256)),
		},
		Packets:      counter(),
		Bytes:        counter(),
		Start:        start,
		End:          start.Add(time.Duration(rng.Int63n(int64(10 * time.Minute)))),
		SrcAS:        rng.Uint32(),
		DstAS:        rng.Uint32(),
		Direction:    flow.Direction(rng.Intn(2)),
		SamplingRate: rng.Uint32(),
	}
}

// recordEqual is exact field equality (times via Equal, which ignores
// location but not the instant).
func recordEqual(a, b *flow.Record) bool {
	return a.Key == b.Key &&
		a.Packets == b.Packets && a.Bytes == b.Bytes &&
		a.Start.Equal(b.Start) && a.End.Equal(b.End) &&
		a.SrcAS == b.SrcAS && a.DstAS == b.DstAS &&
		a.Direction == b.Direction && a.SamplingRate == b.SamplingRate
}

// recordKey is a total serialization for multiset comparison.
func recordKey(r *flow.Record) string {
	return fmt.Sprintf("%v|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d",
		r.Key, r.Packets, r.Bytes, r.Start.UnixNano(), r.End.UnixNano(),
		r.Start.Unix(), r.End.Unix(), r.SrcAS, r.DstAS, r.Direction, r.SamplingRate)
}

// TestCodecRoundTrip is the property-style exactness test for the block
// codec: random records — including max-range counters, wrap-prone
// timestamps, and invalid addresses — must decode bit-for-bit.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		recs := make([]flow.Record, n)
		for i := range recs {
			recs[i] = randRecord(rng)
		}
		payload := encodeBlock(recs)
		got, err := refDecodeBlock(payload, n)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(got) != n {
			t.Fatalf("trial %d: decoded %d records, want %d", trial, len(got), n)
		}
		for i := range recs {
			if !recordEqual(&recs[i], &got[i]) {
				t.Fatalf("trial %d record %d: round-trip mismatch\n in: %+v\nout: %+v",
					trial, i, recs[i], got[i])
			}
		}
	}
}

// TestCodecExtremes pins the named edge cases from the issue: zero and
// max-uint64 counters, and timestamps around the uint32-seconds wrap.
func TestCodecExtremes(t *testing.T) {
	recs := []flow.Record{
		{
			Key:   flow.Key{Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"), Protocol: 17},
			Start: time.Unix(0, 0).UTC(), End: time.Unix(0, 0).UTC(),
		},
		{
			Key:     flow.Key{Src: netip.MustParseAddr("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"), Dst: netip.MustParseAddr("::"), SrcPort: 65535, DstPort: 65535, Protocol: 255},
			Packets: math.MaxUint64, Bytes: math.MaxUint64,
			Start: time.Unix(math.MaxUint32, 999999999).UTC(),
			End:   time.Unix(math.MaxUint32+1, 0).UTC(), // past the 32-bit wrap
			SrcAS: math.MaxUint32, DstAS: math.MaxUint32,
			Direction: flow.Egress, SamplingRate: math.MaxUint32,
		},
		{
			Key:   flow.Key{}, // both addresses invalid
			Start: time.Unix(-1, 1).UTC(), End: time.Unix(-86400*365*10, 0).UTC(),
		},
	}
	payload := encodeBlock(recs)
	got, err := refDecodeBlock(payload, len(recs))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range recs {
		if !recordEqual(&recs[i], &got[i]) {
			t.Fatalf("record %d: mismatch\n in: %+v\nout: %+v", i, recs[i], got[i])
		}
	}
}

// genFlows draws records over a [base, base+days) window with a bounded
// victim population, roughly time-ordered like a live collector feed.
func genFlows(rng *rand.Rand, base time.Time, days, n int) []flow.Record {
	victims := make([]netip.Addr, 32)
	for i := range victims {
		victims[i] = netip.AddrFrom4([4]byte{198, 51, byte(i), byte(rng.Intn(256))})
	}
	recs := make([]flow.Record, n)
	span := time.Duration(days) * 24 * time.Hour
	for i := range recs {
		var src [4]byte
		rng.Read(src[:])
		start := base.Add(time.Duration(float64(span) * float64(i) / float64(n))).
			Add(time.Duration(rng.Int63n(int64(time.Minute))))
		recs[i] = flow.Record{
			Key: flow.Key{
				Src:      netip.AddrFrom4(src),
				Dst:      victims[rng.Intn(len(victims))],
				SrcPort:  uint16(1024 + rng.Intn(60000)),
				DstPort:  []uint16{123, 53, 11211, 80, 443}[rng.Intn(5)],
				Protocol: []uint8{6, 17}[rng.Intn(2)],
			},
			Packets: 1 + uint64(rng.Intn(100000)),
			Bytes:   64 + uint64(rng.Intn(1<<30)),
			Start:   start,
			End:     start.Add(time.Duration(rng.Int63n(int64(2 * time.Minute)))),
			SrcAS:   uint32(rng.Intn(65000)), DstAS: uint32(rng.Intn(65000)),
			SamplingRate: 1,
		}
	}
	return recs
}

var testBase = time.Date(2018, 9, 30, 0, 0, 0, 0, time.UTC)

func TestStoreScanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := genFlows(rng, testBase, 3, 5000)

	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 3, BlockRecords: 128, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(recs); off += 500 {
		end := off + 500
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
	st := s.Stats()
	if st.RecordsAppended != uint64(len(recs)) || st.RecordsDurable != uint64(len(recs)) ||
		st.RecordsDropped != 0 || st.RecordsBuffered != 0 {
		t.Fatalf("stats after seal: %+v", st)
	}

	want := make(map[string]int, len(recs))
	for i := range recs {
		want[recordKey(&recs[i])]++
	}
	var got []flow.Record
	stats, err := s.Scan(Query{}, func(r *flow.Record) error {
		got = append(got, *r)
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("scan returned %d records, want %d", len(got), len(recs))
	}
	if stats.RecordsMatched != uint64(len(recs)) {
		t.Fatalf("stats.RecordsMatched = %d, want %d", stats.RecordsMatched, len(recs))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Start.Before(got[i-1].Start) {
			t.Fatalf("scan order violated at %d: %v after %v", i, got[i].Start, got[i-1].Start)
		}
	}
	for i := range got {
		k := recordKey(&got[i])
		if want[k] == 0 {
			t.Fatalf("scan returned unexpected record %+v", got[i])
		}
		want[k]--
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestScanPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	recs := genFlows(rng, testBase, 2, 3000)
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 4, BlockRecords: 64, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	queries := []Query{
		{From: testBase.Add(6 * time.Hour), To: testBase.Add(30 * time.Hour)},
		{Dst: recs[100].Dst},
		{DstPorts: []uint16{123, 53, 11211}, Protocols: []uint8{17}},
		{From: testBase.Add(12 * time.Hour), To: testBase.Add(18 * time.Hour), Dst: recs[200].Dst, Protocols: []uint8{17}},
	}
	for qi, q := range queries {
		want := 0
		for i := range recs {
			if refMatches(&q, &recs[i]) {
				want++
			}
		}
		got := 0
		if _, err := s.Scan(q, func(r *flow.Record) error {
			if !refMatches(&q, r) {
				t.Fatalf("query %d: scan returned non-matching record %+v", qi, *r)
			}
			got++
			return nil
		}); err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if got != want {
			t.Fatalf("query %d: scan matched %d records, brute force says %d", qi, got, want)
		}
	}
}

// TestScanPruning asserts the acceptance criterion: a narrow time+victim
// predicate over a month of flows must skip at least 80% of blocks via
// the sparse indexes without decoding them.
func TestScanPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	recs := genFlows(rng, testBase, 30, 60000)
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 4, BlockRecords: 256, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	q := Query{
		From: testBase.Add(14 * 24 * time.Hour),
		To:   testBase.Add(15 * 24 * time.Hour),
		Dst:  recs[0].Dst,
	}
	want := 0
	for i := range recs {
		if refMatches(&q, &recs[i]) {
			want++
		}
	}
	got := 0
	stats, err := s.Scan(q, func(r *flow.Record) error { got++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("pruned scan matched %d records, brute force says %d", got, want)
	}
	if frac := stats.PruneFraction(); frac < 0.8 {
		t.Fatalf("prune fraction %.3f < 0.80 (%d scanned, %d pruned)",
			frac, stats.BlocksScanned, stats.BlocksPruned)
	}
	t.Logf("pruning: %d/%d blocks skipped (%.1f%%), %d segments pruned outright",
		stats.BlocksPruned, stats.BlocksPruned+stats.BlocksScanned,
		100*stats.PruneFraction(), stats.SegmentsPruned)
}

// TestDeterministicLayout: the same input must produce byte-identical
// segment files and manifests — the foundation of the replay-equals-live
// guarantee.
func TestDeterministicLayout(t *testing.T) {
	build := func(dir string) {
		rng := rand.New(rand.NewSource(17))
		recs := genFlows(rng, testBase, 2, 4000)
		s, err := Open(dir, Options{Shards: 4, BlockRecords: 128, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append(recs); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	build(dirA)
	build(dirB)

	var files []string
	err := filepath.Walk(dirA, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dirA, path)
		files = append(files, rel)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	if len(files) < 2 {
		t.Fatalf("expected manifest + segments, found %v", files)
	}
	for _, rel := range files {
		a, err := os.ReadFile(filepath.Join(dirA, rel))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, rel))
		if err != nil {
			t.Fatalf("file %s exists in A but not B: %v", rel, err)
		}
		if string(a) != string(b) {
			t.Fatalf("file %s differs between identical runs", rel)
		}
	}
}

// crashAppend appends recs in 400-record calls to a fresh store whose
// block writes fp governs and returns it unsealed — the state a killed
// process leaves — with the last error Append reported.
func crashAppend(t *testing.T, recs []flow.Record, fp *chaos.Failpoint) (*Store, error) {
	t.Helper()
	s, err := Open(t.TempDir(), Options{Shards: 2, BlockRecords: 128, NoSync: true, WriteFault: fp})
	if err != nil {
		t.Fatal(err)
	}
	var appendErr error
	for off := 0; off < len(recs); off += 400 {
		if err := s.Append(recs[off:min(off+400, len(recs))]); err != nil {
			appendErr = err
		}
	}
	return s, appendErr
}

// TestCrashRecovery kills a writer at every block-write op in turn with
// a chaos failpoint and asserts that the store's accounting explains
// every appended record and that a reopen adopts exactly the durable
// ones; it then tears the tail of a segment file, reopens, and accounts
// for the tear too — zero silent loss.
func TestCrashRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	recs := genFlows(rng, testBase, 1, 4000)

	// A probe that never fires counts the block writes of a clean run.
	probe := chaos.NewFailpoint()
	if _, err := crashAppend(t, recs, probe); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	ops := probe.Ops()
	if ops < 20 {
		t.Fatalf("clean run made %d block writes; the matrix needs a few dozen", ops)
	}

	var s *Store // the op-12 crash, torn further below
	for k := uint64(0); k < ops; k++ {
		// FailFrom kills every block write from op k on: k blocks land,
		// then the writer is "dead" — the shape of a crashed process.
		dead, appendErr := crashAppend(t, recs, chaos.FailFrom(k))
		if !errors.Is(appendErr, chaos.ErrInjected) {
			t.Fatalf("op %d: expected an injected fault from Append, got %v", k, appendErr)
		}
		st := dead.Stats()
		if st.RecordsAppended != st.RecordsDurable+st.RecordsBuffered+st.RecordsDropped {
			t.Fatalf("op %d: accounting invariant broken mid-crash: %+v", k, st)
		}
		if st.BlocksWritten != k || st.RecordsDurable != 128*k || st.RecordsDropped != 128*(ops-k) {
			t.Fatalf("op %d of %d: want %d blocks durable and the rest dropped, got %+v", k, ops, k, st)
		}
		if k == 12 {
			s = dead
			continue // reopened below, after the tear
		}
		re, err := Open(dead.Dir(), Options{})
		if err != nil {
			t.Fatalf("op %d: reopen: %v", k, err)
		}
		n := uint64(0)
		if _, err := re.Scan(Query{}, func(*flow.Record) error { n++; return nil }); err != nil {
			t.Fatalf("op %d: scan after reopen: %v", k, err)
		}
		if rec := re.Recovery(); rec.RecoveredRecords != st.RecordsDurable || n != st.RecordsDurable || rec.TornSegments != 0 {
			t.Fatalf("op %d: reopen adopted %d records (%d torn segments), scan served %d, want exactly the %d durable",
				k, rec.RecoveredRecords, rec.TornSegments, n, st.RecordsDurable)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}

		// A fault at op k alone: the dropped block's staging slab is
		// emptied, not poisoned — the segment takes the very next record,
		// and every block after the fault lands.
		once, appendErr := crashAppend(t, recs, chaos.NewFailpoint(k))
		if !errors.Is(appendErr, chaos.ErrInjected) {
			t.Fatalf("single fault at op %d: expected an injected fault from Append, got %v", k, appendErr)
		}
		if err := once.Close(); err != nil {
			t.Fatalf("single fault at op %d: close: %v", k, err)
		}
		st = once.Stats()
		if st.RecordsDropped != 128 || st.RecordsBuffered != 0 || st.RecordsDurable != uint64(len(recs))-128 {
			t.Fatalf("single fault at op %d: want one 128-record block dropped and the rest durable, got %+v", k, st)
		}
	}
	dir := s.Dir()
	st := s.Stats()
	if st.RecordsDropped == 0 || st.RecordsDurable == 0 {
		t.Fatalf("want both durable and dropped records, got %+v", st)
	}
	// Crash: the store is abandoned without Seal/Close. Buffered records
	// die with the process; the accounting already names them.
	lostBuffered := st.RecordsBuffered

	// Tear the tail of one unsealed segment mid-frame and count exactly
	// which records the tear destroys.
	segs, err := filepath.Glob(filepath.Join(dir, "shard-*", "seg-*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files on disk: %v", err)
	}
	sort.Strings(segs)
	victim := segs[0]
	blocks, err := InspectSegment(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) == 0 {
		t.Fatalf("victim segment %s has no blocks", victim)
	}
	last := blocks[len(blocks)-1]
	tornRecords := uint64(last.Records)
	if err := os.Truncate(victim, last.Offset+int64(last.FrameBytes)-3); err != nil {
		t.Fatal(err)
	}

	// Reopen: recovery must truncate the torn frame and adopt the rest.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec.TornSegments != 1 {
		t.Fatalf("TornSegments = %d, want 1 (%+v)", rec.TornSegments, rec)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatalf("TruncatedBytes = 0, want > 0")
	}
	wantRecovered := st.RecordsDurable - tornRecords
	if rec.RecoveredRecords != wantRecovered {
		t.Fatalf("RecoveredRecords = %d, want %d (durable %d - torn %d)",
			rec.RecoveredRecords, wantRecovered, st.RecordsDurable, tornRecords)
	}

	// Every appended record is now explained: recovered on disk, torn by
	// the simulated tear, dropped by the injected fault, or buffered at
	// crash time. Nothing silent.
	total := rec.RecoveredRecords + tornRecords + st.RecordsDropped + lostBuffered
	if total != st.RecordsAppended {
		t.Fatalf("silent loss: recovered %d + torn %d + dropped %d + buffered %d = %d != appended %d",
			rec.RecoveredRecords, tornRecords, st.RecordsDropped, lostBuffered, total, st.RecordsAppended)
	}

	// The recovered store must actually serve exactly the recovered
	// records.
	n := uint64(0)
	if _, err := s2.Scan(Query{}, func(*flow.Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != rec.RecoveredRecords {
		t.Fatalf("scan after recovery returned %d records, manifest says %d", n, rec.RecoveredRecords)
	}

	// Reopening a recovered store again is a no-op: everything is sealed.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if r3 := s3.Recovery(); r3 != (RecoveryReport{}) {
		t.Fatalf("second recovery not idempotent: %+v", r3)
	}
}

// TestScanUnsealedInvisible pins the visibility rule: records are not
// scannable until Seal publishes their segments in the manifest.
func TestScanUnsealedInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	recs := genFlows(rng, testBase, 1, 300)
	s, err := Open(t.TempDir(), Options{Shards: 2, BlockRecords: 64, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(recs); err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := s.Scan(Query{}, func(*flow.Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("unsealed records visible to Scan: %d", n)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	n = 0
	if _, err := s.Scan(Query{}, func(*flow.Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != len(recs) {
		t.Fatalf("after seal: scan returned %d, want %d", n, len(recs))
	}
}

// TestMetaRoundTrip: manifest metadata survives reopen.
func TestMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	meta := map[string]string{"seed": "2019", "vantage": "ixp", "days": "30"}
	s, err := Open(dir, Options{Meta: meta, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.Meta()
	for k, v := range meta {
		if got[k] != v {
			t.Fatalf("meta[%q] = %q, want %q", k, got[k], v)
		}
	}
}

// TestStaleSealOrder: when a new newest partition makes several open
// ones stale at once, they seal oldest first — not in map order — so
// the first error to surface and the order staging slabs come back for
// reuse are the same on every run.
func TestStaleSealOrder(t *testing.T) {
	at := func(day int) []flow.Record {
		r := tieRecord(day, testBase.Add(time.Duration(day)*24*time.Hour))
		return []flow.Record{r}
	}
	for run := 0; run < 16; run++ { // two-entry map order is a coin flip
		s, err := Open(t.TempDir(), Options{Shards: 1, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, day := range []int{1, 0, 5} { // day 5 strands days 0 and 1
			if err := s.Append(at(day)); err != nil {
				t.Fatal(err)
			}
		}
		segs := s.Segments() // seal order until the next manifest save sorts it
		if len(segs) != 2 || segs[0].PartitionSec >= segs[1].PartitionSec {
			t.Fatalf("run %d: stale partitions sealed as %+v, want day 0 then day 1", run, segs)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
