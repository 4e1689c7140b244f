package flowstore

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/pipe"
)

// decodeThenFilter is the reference the pushdown tests compare against:
// decode every record whole, then apply the reference predicate.
func decodeThenFilter(t *testing.T, payload []byte, n int, q *Query) []flow.Record {
	t.Helper()
	recs, err := refDecodeBlock(payload, n)
	if err != nil {
		t.Fatalf("reference decode: %v", err)
	}
	var out []flow.Record
	for i := range recs {
		if refMatches(q, &recs[i]) {
			out = append(out, recs[i])
		}
	}
	return out
}

// columnarFilter runs the pushed-down predicate over a loaded block and
// materializes the survivors.
func columnarFilter(t *testing.T, payload []byte, n int, q *Query) []flow.Record {
	t.Helper()
	cb := getColumnBlock()
	defer cb.Release()
	if err := cb.load(payload, n); err != nil {
		t.Fatalf("columnar load: %v", err)
	}
	p := compilePredicate(q)
	if err := cb.applyQuery(&p); err != nil {
		t.Fatalf("apply query: %v", err)
	}
	if cb.selCount == 0 {
		return nil
	}
	if err := cb.decodeSet(AllColumns); err != nil {
		t.Fatalf("decode all: %v", err)
	}
	return cb.materializeSelected(nil)
}

// randQuery builds a randomized Query, biased so every predicate shape
// (including netip corner cases) gets exercised.
func randQuery(rng *rand.Rand, recs []flow.Record) Query {
	var q Query
	pick := func() *flow.Record { return &recs[rng.Intn(len(recs))] }
	if rng.Intn(2) == 0 {
		q.From = pick().Start.Add(time.Duration(rng.Int63n(int64(2*time.Minute))) - time.Minute)
	}
	if rng.Intn(2) == 0 {
		q.To = pick().Start.Add(time.Duration(rng.Int63n(int64(2*time.Minute))) - time.Minute)
	}
	switch rng.Intn(5) {
	case 0: // drill into a destination that exists
		q.Dst = pick().Dst
	case 1: // random (usually absent) destination
		var b [4]byte
		rng.Read(b[:])
		q.Dst = netip.AddrFrom4(b)
	case 2: // 4-in-6 form of an existing destination: must NOT equal
		// the unmapped v4 address under netip semantics.
		d := pick().Dst
		if d.Is4() {
			q.Dst = netip.AddrFrom16(d.As16())
		}
	case 3: // zoned address matches nothing
		q.Dst = netip.MustParseAddr("fe80::1%eth0")
	}
	ports := func() []uint16 {
		n := 1 + rng.Intn(3)
		out := make([]uint16, n)
		for i := range out {
			if rng.Intn(2) == 0 {
				out[i] = pick().DstPort
			} else {
				out[i] = uint16(rng.Intn(1 << 16))
			}
		}
		return out
	}
	if rng.Intn(2) == 0 {
		q.DstPorts = ports()
	}
	if rng.Intn(2) == 0 {
		q.PortsEither = ports()
	}
	if rng.Intn(2) == 0 {
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				q.Protocols = append(q.Protocols, pick().Protocol)
			} else {
				q.Protocols = append(q.Protocols, uint8(rng.Intn(256)))
			}
		}
	}
	return q
}

// TestPushdownMatchesRowFilter is the pushdown property test: for
// randomized blocks and randomized queries, the pushed-down selection
// must keep exactly the records the reference decode-then-filter
// keeps, bit for bit and in order.
func TestPushdownMatchesRowFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(300)
		recs := make([]flow.Record, n)
		for i := range recs {
			recs[i] = randRecord(rng)
		}
		payload := encodeBlock(recs)
		q := randQuery(rng, recs)
		want := decodeThenFilter(t, payload, n, &q)
		got := columnarFilter(t, payload, n, &q)
		if len(got) != len(want) {
			t.Fatalf("trial %d: pushdown kept %d records, reference filter %d (query %+v)",
				trial, len(got), len(want), q)
		}
		for i := range want {
			if !recordEqual(&got[i], &want[i]) {
				t.Fatalf("trial %d record %d diverges (query %+v)\ncolumnar:  %+v\nreference: %+v",
					trial, i, q, got[i], want[i])
			}
		}
	}
}

// TestAppendSelectedMatchesMaterialize: compacting survivors into a
// columnar slab and materializing that slab must equal materializing
// the selection directly — the two lazy paths agree.
func TestAppendSelectedMatchesMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(300)
		recs := make([]flow.Record, n)
		for i := range recs {
			recs[i] = randRecord(rng)
		}
		payload := encodeBlock(recs)
		q := randQuery(rng, recs)

		cb := getColumnBlock()
		if err := cb.load(payload, n); err != nil {
			t.Fatalf("load: %v", err)
		}
		p := compilePredicate(&q)
		if err := cb.applyQuery(&p); err != nil {
			t.Fatalf("apply: %v", err)
		}
		if err := cb.decodeSet(AllColumns); err != nil {
			t.Fatalf("decode all: %v", err)
		}
		direct := cb.materializeSelected(nil)
		var cols flow.Columns
		cb.appendSelected(&cols)
		viaCols := cols.MaterializeAppend(nil)
		cb.Release()

		if len(direct) != len(viaCols) {
			t.Fatalf("trial %d: direct %d records, via columns %d", trial, len(direct), len(viaCols))
		}
		for i := range direct {
			if !recordEqual(&direct[i], &viaCols[i]) {
				t.Fatalf("trial %d record %d diverges\ndirect: %+v\ncols:   %+v",
					trial, i, direct[i], viaCols[i])
			}
		}
	}
}

// TestV1PayloadRejected: the retired v1 block format is refused by
// name, with the way out, rather than misparsed — by the scan's block
// loader and by the reference decoder alike.
func TestV1PayloadRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	recs := make([]flow.Record, 50)
	for i := range recs {
		recs[i] = randRecord(rng)
	}
	v1 := encodeBlockV1(recs)
	cb := getColumnBlock()
	defer cb.Release()
	err := cb.load(v1, len(recs))
	if err == nil || !strings.Contains(err.Error(), "v1 format") || !strings.Contains(err.Error(), "regenerate with flowgen") {
		t.Fatalf("load of a v1 payload: err = %v, want one naming the v1 format and flowgen", err)
	}
	if _, refErr := refDecodeBlock(v1, len(recs)); refErr == nil {
		t.Fatal("reference decoder accepted a v1 payload")
	}
}

// TestScanStatsColumnsDecoded is the accounting golden: a pruned,
// predicated scan must report both the prune fraction and the share of
// columns the pushdown actually decoded.
func TestScanStatsColumnsDecoded(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	recs := genFlows(rng, testBase, 6, 12_000)
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 3, BlockRecords: 128, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}

	// Victim drilldown for an address inside every block's dst index
	// range but present in no record: blocks scan, nothing matches, so
	// only the predicate's columns — flags, the two dst halves, and the
	// two start-time columns — ever decode.
	q := Query{
		From: testBase.Add(24 * time.Hour),
		To:   testBase.Add(48 * time.Hour),
		Dst:  netip.MustParseAddr("198.51.15.1"),
	}
	stats, err := s.ScanBatches(q, func(b *pipe.Batch) error { b.Release(); return nil })
	if err != nil {
		t.Fatalf("columnar scan: %v", err)
	}
	if stats.PruneFraction() <= 0 {
		t.Fatalf("time-bounded scan pruned nothing: %+v", stats)
	}
	if stats.BlocksScanned == 0 {
		t.Fatalf("drilldown scanned no blocks: %+v", stats)
	}
	// flags, dstHi, dstLo, startSec — whole-second From/To bounds elide
	// the start-nanosecond column (see compilePredicate).
	const predicateCols = 4
	blocks := uint64(stats.BlocksScanned)
	if stats.ColumnsTotal != blocks*nCols || stats.ColumnsDecoded != blocks*predicateCols {
		t.Fatalf("column accounting golden diverges: decoded %d / total %d over %d blocks, want %d / %d",
			stats.ColumnsDecoded, stats.ColumnsTotal, blocks,
			blocks*predicateCols, blocks*nCols)
	}
	frac := stats.ColumnsDecodedFraction()
	if want := float64(predicateCols) / float64(nCols); frac != want {
		t.Fatalf("columns decoded fraction = %v, want %v", frac, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// oracleQueries are the query shapes the scan-level differential and
// the digest golden run: everything, a protocol+port predicate, and a
// time window cutting through partitions.
var oracleQueries = []Query{
	{},
	{Protocols: []uint8{17}, PortsEither: []uint16{123}},
	{From: testBase.Add(12 * time.Hour), To: testBase.Add(60 * time.Hour)},
}

// oracleStore is the seeded multi-shard, multi-partition store those
// two tests scan.
func oracleStore(t *testing.T) *Store {
	return buildTestStore(t, genFlows(rand.New(rand.NewSource(89)), testBase, 4, 9000), 3)
}

// scanKeys runs q both ways and returns each record's recordKey: the
// Scan stream in delivery order, and the ScanBatches multiset sorted.
func scanKeys(t *testing.T, s *Store, q Query) (ordered, batches []string) {
	t.Helper()
	if _, err := s.Scan(q, func(r *flow.Record) error {
		ordered = append(ordered, recordKey(r))
		return nil
	}); err != nil {
		t.Fatalf("scan %+v: %v", q, err)
	}
	if _, err := s.ScanBatches(q, func(b *pipe.Batch) error {
		defer b.Release()
		rs := b.Recs
		if b.Cols != nil {
			rs = b.Cols.MaterializeAppend(nil)
		}
		for i := range rs {
			batches = append(batches, recordKey(&rs[i]))
		}
		return nil
	}); err != nil {
		t.Fatalf("scan batches %+v: %v", q, err)
	}
	sort.Strings(batches)
	return ordered, batches
}

// TestRowDecodeOracleEquivalence is the flowstore-level differential:
// Scan must deliver exactly the reference scan's records in its order,
// and ScanBatches the same multiset.
func TestRowDecodeOracleEquivalence(t *testing.T) {
	s := oracleStore(t)
	for qi, q := range oracleQueries {
		var want []string
		for _, r := range refScan(t, s, q) {
			want = append(want, recordKey(&r))
		}
		if len(want) == 0 {
			t.Fatalf("query %d: reference scan is empty", qi)
		}
		ordered, batches := scanKeys(t, s, q)
		if !slices.Equal(ordered, want) {
			t.Errorf("query %d: Scan stream (%d records) diverges from the reference scan (%d)", qi, len(ordered), len(want))
		}
		sort.Strings(want)
		if !slices.Equal(batches, want) {
			t.Errorf("query %d: ScanBatches multiset (%d records) diverges from the reference scan (%d)", qi, len(batches), len(want))
		}
	}
}

// TestScanDigestGolden freezes the scan output itself: SHA-256 over the
// ordered Scan stream and over the sorted ScanBatches multiset, one
// recordKey per line. The constants were computed at the last commit
// that still had the row-at-a-time decoder, with it switched off and
// on; both settings produced these digests.
func TestScanDigestGolden(t *testing.T) {
	golden := []struct{ ordered, batches string }{
		{"f7f5915425d8e007f960fd90ee23a87317f10cad3c3dd1393a06ed6651167431", "b827f19beff34e3e7020b857f231f6b90372e596865a123b366b5c59227be836"},
		{"f7fbca6b64090256b287e1c388c0e88175c7c9da55f0b8cf6b1263fc079b52fc", "4e9cacf13f7f5d1d3101e23a4c0f4046af562876ed6f164ea37f6af64449201e"},
		{"ac278e38efc8ad2e7c1336b9a7c3bcebdd957409bbbad7c22a5890a88953c2b4", "d8371e4e2111c2fb7482c84a499de131b10e778ce5a0a1e1f1e48c4ded50af0c"},
	}
	digest := func(keys []string) string {
		h := sha256.New()
		for _, k := range keys {
			io.WriteString(h, k+"\n")
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	s := oracleStore(t)
	for qi, q := range oracleQueries {
		ordered, batches := scanKeys(t, s, q)
		if got := digest(ordered); got != golden[qi].ordered {
			t.Errorf("query %d: ordered Scan digest %s, want %s", qi, got, golden[qi].ordered)
		}
		if got := digest(batches); got != golden[qi].batches {
			t.Errorf("query %d: ScanBatches digest %s, want %s", qi, got, golden[qi].batches)
		}
	}
}
