package flowstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"booterscope/internal/flow"
)

// layoutGoldenInput is the seeded input TestLayoutDigestGolden writes:
// four arrival phases over three partitions, drawing every value class
// the encoder decides on.
//
//  1. a pre-1970 run, in order (its partition goes stale and is sealed
//     the moment day 0 opens);
//  2. day 0 strictly in arrival order with four-way equal-Start ties and
//     rising nanoseconds inside a second — whole blocks the writer never
//     has to sort;
//  3. days 0–1 shuffled, Start drawn from few distinct seconds so the
//     stable tie order is visible in the bytes;
//  4. late pre-1970 records, which reopen the sealed partition as a new
//     segment and leave partial final blocks everywhere.
func layoutGoldenInput() []flow.Record {
	rng := rand.New(rand.NewSource(101))
	addr := func() netip.Addr {
		switch rng.Intn(8) {
		case 0: // IPv6
			var b [16]byte
			rng.Read(b[:])
			return netip.AddrFrom16(b)
		case 1: // IPv4-mapped IPv6, not unmapped: Is4 is false
			return netip.AddrFrom16([16]byte{10: 0xff, 11: 0xff, 12: 203, 13: 0, 14: 113, 15: byte(rng.Intn(4))})
		case 2: // invalid
			return netip.Addr{}
		default:
			return netip.AddrFrom4([4]byte{198, 51, byte(rng.Intn(3)), byte(rng.Intn(256))})
		}
	}
	counter := func() uint64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return math.MaxUint64
		default:
			return rng.Uint64() >> uint(rng.Intn(64))
		}
	}
	rec := func(start time.Time) flow.Record {
		return flow.Record{
			Key: flow.Key{
				Src:      addr(),
				Dst:      addr(),
				SrcPort:  uint16(rng.Intn(1 << 16)),
				DstPort:  []uint16{123, 53, 11211, 0, 65535}[rng.Intn(5)],
				Protocol: []uint8{6, 17, 47, 128, 200, 255}[rng.Intn(6)],
			},
			Packets:      counter(),
			Bytes:        counter(),
			Start:        start,
			End:          start.Add(time.Duration(rng.Int63n(int64(3*time.Minute))) - time.Minute),
			SrcAS:        uint32(rng.Intn(70000)),
			DstAS:        []uint32{0, 64500, math.MaxUint32}[rng.Intn(3)],
			Direction:    flow.Direction(rng.Intn(2)),
			SamplingRate: []uint32{0, 1, 1, 1, 10000}[rng.Intn(5)],
		}
	}
	var recs []flow.Record
	for i := 0; i < 60; i++ {
		recs = append(recs, rec(time.Unix(-4000+int64(i), int64(i)*1000).UTC()))
	}
	for i := 0; i < 1600; i++ {
		recs = append(recs, rec(testBase.Add(time.Duration(i/4)*time.Second+time.Duration(i%4/2)*time.Millisecond)))
	}
	shuffled := make([]flow.Record, 1700)
	for i := range shuffled {
		sec := 20*3600 + 60*rng.Intn(480) // 20:00 day 0 … 04:00 day 1, one-minute grid
		shuffled[i] = rec(testBase.Add(time.Duration(sec)*time.Second + time.Duration(rng.Intn(2))*time.Microsecond))
	}
	recs = append(recs, shuffled...)
	for i := 0; i < 9; i++ {
		recs = append(recs, rec(time.Unix(-9-int64(i), 999999999).UTC()))
	}
	return recs
}

// TestLayoutDigestGolden freezes the bytes the write path produces:
// SHA-256 over every segment file (path, then contents, in path order)
// and over MANIFEST.json of a store fed layoutGoldenInput in uneven
// Append calls. TestDeterministicLayout only compares two runs of one
// binary; this catches an encoder that writes different bytes of the
// same length. The constants were computed at commit 746b065, the last
// one with the row-buffering, materialise-and-compare encoder.
func TestLayoutDigestGolden(t *testing.T) {
	const (
		goldenSegments = "bbcbcd847031aae5a45b9f7e364d69496897f41c72da0caf133f3d2285fb7955"
		goldenManifest = "1f140f463124329a8671638db1510a2b4ae8e71ce31f9d81d7f823d008777986"
		goldenFiles    = 16
	)
	recs := layoutGoldenInput()
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 4, BlockRecords: 128, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for off, step := 0, 1; off < len(recs); off, step = off+step, step*3%1000+1 {
		if err := s.Append(recs[off:min(off+step, len(recs))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "shard-*", "seg-*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	h := sha256.New()
	parts := make(map[int64]bool)
	for _, path := range segs {
		rel, _ := filepath.Rel(dir, path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(filepath.ToSlash(rel) + "\n"))
		h.Write(data)
		p, _ := parseSegName(filepath.Base(path))
		parts[p] = true
	}
	if len(parts) != 3 {
		t.Fatalf("input spans %d partitions, want 3", len(parts))
	}
	if len(segs) != goldenFiles {
		t.Errorf("%d segment files, want %d", len(segs), goldenFiles)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSegments {
		t.Errorf("segment digest %s, want %s", got, goldenSegments)
	}
	man, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(man)
	if got := hex.EncodeToString(sum[:]); got != goldenManifest {
		t.Errorf("manifest digest %s, want %s", got, goldenManifest)
	}
}

// checkEncoderAgainstReference encodes records, in the order given,
// with the production encoder e (reused across calls, as a Store reuses
// its own) and with the reference encoder, and requires the same
// payload byte for byte, the reference index, and a frame head that
// describes the rest.
func checkEncoderAgainstReference(t *testing.T, e *blockEncoder, name string, recs []flow.Record) {
	t.Helper()
	frame, ix := e.encode(stage(recs))
	if want := refBuildIndex(recs); ix != want {
		t.Fatalf("%s: index %+v, reference %+v", name, ix, want)
	}
	body := frame[frameHeadLen:]
	if got := binary.BigEndian.Uint32(frame[0:4]); int(got) != len(body) {
		t.Fatalf("%s: frame length field %d, body is %d bytes", name, got, len(body))
	}
	if got := binary.BigEndian.Uint32(frame[4:8]); got != crc32.ChecksumIEEE(body) {
		t.Fatalf("%s: frame CRC %08x does not cover the body", name, got)
	}
	if !bytes.Equal(body[:blockIndexLen], ix.marshal(nil)) {
		t.Fatalf("%s: frame index bytes are not the marshalled index", name)
	}
	if want := refEncodeBlock(recs); !bytes.Equal(body[blockIndexLen:], want) {
		var got, ref parsedBlock
		if got.parse(body[blockIndexLen:]) == nil && ref.parse(want) == nil {
			for i := 0; i < nCols; i++ {
				if got.encs[i] != ref.encs[i] || !bytes.Equal(got.cols[i], ref.cols[i]) {
					t.Fatalf("%s: column %d: encoding %d, %d bytes; reference encoding %d, %d bytes",
						name, i, got.encs[i], len(got.cols[i]), ref.encs[i], len(ref.cols[i]))
				}
			}
		}
		t.Fatalf("%s: payload (%d bytes) differs from the reference encoder's (%d bytes)", name, len(body)-blockIndexLen, len(want))
	}
}

// shapedBlock builds a block whose Packets column holds vals — a free
// uint64 column, so any value shape can be put in front of the encoding
// choice — with every other column constant.
func shapedBlock(vals []uint64) []flow.Record {
	recs := make([]flow.Record, len(vals))
	for i, v := range vals {
		recs[i] = flow.Record{
			Key:     flow.Key{Src: netip.MustParseAddr("192.0.2.1"), Dst: netip.MustParseAddr("198.51.100.7"), DstPort: 123, Protocol: 17},
			Packets: v, Start: testBase, End: testBase,
		}
	}
	return recs
}

// TestEncoderMatchesReference holds the arithmetic encoder to the
// materialise-and-compare one it replaced, on column shapes sitting on
// every edge of the raw/dict/fixed choice and on seeded random blocks.
func TestEncoderMatchesReference(t *testing.T) {
	var e blockEncoder
	check := func(name string, recs []flow.Record) {
		t.Helper()
		checkEncoderAgainstReference(t, &e, name, recs)
	}
	check("empty block", nil)

	// varintMin[l] is the smallest value whose uvarint takes l bytes;
	// varintMin[l+1]-1 is the largest.
	var varintMin [12]uint64
	for l := 2; l <= 10; l++ {
		varintMin[l] = 1 << (7 * (l - 1))
	}
	// cycle returns n values over k distinct ones of varint length l.
	cycle := func(n, k, l int) []uint64 {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = varintMin[l] + uint64(i%k)
		}
		return vals
	}

	// Every (rows, distinct, varint length) on a small grid: the dict
	// width steps (1|2, 2|3, 4|5, 16|17 distinct), every varint length,
	// and — because the grid is dense in rows — the points where the
	// dict form is exactly as long as the raw one (e.g. 4 rows of 2
	// one-byte values: 4 bytes either way, dict wins) and one row to
	// either side.
	for n := 1; n <= 40; n++ {
		for _, k := range []int{1, 2, 3, 4, 5, 16, 17} {
			for l := 1; l <= 10; l++ {
				check(fmt.Sprintf("%d rows, %d distinct, %d-byte varints", n, min(n, k), l), shapedBlock(cycle(n, k, l)))
			}
		}
	}
	// The dictionary's size limit: 256 distinct values still dictionary-
	// encode, 257 cannot; repeated enough that dict would otherwise win.
	for _, k := range []int{255, 256, 257, 258} {
		for _, l := range []int{1, 3, 5, 10} {
			check(fmt.Sprintf("%d distinct, %d-byte varints", k, l), shapedBlock(cycle(4*k, k, l)))
		}
	}
	// Largest and smallest value of every varint length, all in one
	// column and one length at a time.
	var edges []uint64
	for l := 1; l <= 10; l++ {
		hi := uint64(math.MaxUint64)
		if l < 10 {
			hi = varintMin[l+1] - 1
		}
		edges = append(edges, varintMin[l], hi)
		check(fmt.Sprintf("%d-byte varint edges", l), shapedBlock([]uint64{varintMin[l], hi, hi, varintMin[l], hi}))
	}
	check("every varint length", shapedBlock(edges))

	// The fixed-width threshold, raw > rows·(width/2+1), at each width:
	// 300 distinct values (too many for a dictionary) whose varints run
	// exactly width/2+1 bytes put raw on the threshold — stays raw; one
	// value a byte longer tips it to fixed; one longer and one shorter
	// puts it back.
	for _, w := range []int{2, 4, 8} {
		l := w/2 + 1
		base := make([]uint64, 300)
		for i := range base {
			base[i] = varintMin[l+1] - 1 - uint64(i) // l-byte varints that need the full width
		}
		check(fmt.Sprintf("width %d at the threshold", w), shapedBlock(base))
		over := slices.Clone(base)
		over[7] = varintMin[l+1]
		check(fmt.Sprintf("width %d one past the threshold", w), shapedBlock(over))
		back := slices.Clone(over)
		back[9] = varintMin[l] - 1
		check(fmt.Sprintf("width %d back on the threshold", w), shapedBlock(back))
		// The same three with too few rows for the 256-value cap to be
		// what rules the dictionary out: it loses on size.
		check(fmt.Sprintf("width %d at the threshold, 40 rows", w), shapedBlock(base[:40]))
		check(fmt.Sprintf("width %d one past the threshold, 40 rows", w), shapedBlock(over[:40]))
		check(fmt.Sprintf("width %d back on the threshold, 40 rows", w), shapedBlock(back[:40]))
	}

	// Seeded random blocks: every field of every row drawn from a pool
	// whose size and magnitude are themselves drawn per block and field,
	// so each of the sixteen value columns wanders over the whole choice.
	rng := rand.New(rand.NewSource(1911_05164))
	for trial := 0; trial < 10000; trial++ {
		check(fmt.Sprintf("random block %d", trial), randShapedBlock(rng))
	}
}

// pooled returns a drawing function over a pool of draw's values whose
// size is one of the dictionary's decision edges — or unbounded.
func pooled[T any](rng *rand.Rand, draw func() T) func() T {
	k := []int{1, 2, 3, 4, 5, 16, 17, 256, 257, 0}[rng.Intn(10)]
	if k == 0 {
		return draw
	}
	pool := make([]T, k)
	for i := range pool {
		pool[i] = draw()
	}
	return func() T { return pool[rng.Intn(k)] }
}

// randShapedBlock draws a block of 0–160 records (1 and 2 rows
// over-represented) for the encoder property test.
func randShapedBlock(rng *rand.Rand) []flow.Record {
	n := rng.Intn(161)
	if rng.Intn(8) == 0 {
		n = rng.Intn(3)
	}
	// sized draws uint64s of a per-field random bit length.
	sized := func() func() uint64 {
		shift := uint(rng.Intn(64))
		return pooled(rng, func() uint64 { return rng.Uint64() >> shift })
	}
	addr := func() func() netip.Addr {
		kinds := 1 + rng.Intn(4)
		return pooled(rng, func() netip.Addr {
			var b [16]byte
			rng.Read(b[:])
			switch rng.Intn(kinds) {
			case 0:
				return netip.AddrFrom4([4]byte(b[:4]))
			case 1:
				return netip.AddrFrom16(b)
			case 2:
				return netip.Addr{}
			default: // IPv4-mapped IPv6, kept mapped
				copy(b[:], []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff})
				return netip.AddrFrom16(b)
			}
		})
	}
	src, dst := addr(), addr()
	srcPort, dstPort, proto := sized(), sized(), sized()
	packets, byts := sized(), sized()
	startSec, startNs, dur := sized(), sized(), sized()
	srcAS, dstAS, sampling, dir := sized(), sized(), sized(), sized()
	recs := make([]flow.Record, n)
	for i := range recs {
		// Seconds within ±2^40 of the epoch, both signs.
		start := time.Unix(int64(startSec()>>24)-1<<39, int64(startNs()%1e9)).UTC()
		recs[i] = flow.Record{
			Key: flow.Key{
				Src: src(), Dst: dst(),
				SrcPort: uint16(srcPort()), DstPort: uint16(dstPort()), Protocol: uint8(proto()),
			},
			Packets: packets(), Bytes: byts(),
			Start: start, End: start.Add(time.Duration(dur()>>20) - time.Hour),
			SrcAS: uint32(srcAS()), DstAS: uint32(dstAS()),
			Direction: flow.Direction(dir() & 1), SamplingRate: uint32(sampling()),
		}
	}
	return recs
}

// TestShardOfMatchesBytewise holds the run-skipping shardOf to the
// byte-at-a-time loop over every address family, every value of every
// port and protocol byte, and random keys.
func TestShardOfMatchesBytewise(t *testing.T) {
	check := func(r *flow.Record) {
		t.Helper()
		// MaxInt64 as a modulus compares (all but one in 2^63 of) the hash
		// values themselves, not only their low bits.
		for _, shards := range []int{1, 4, 7, 120, math.MaxInt64} {
			if got, want := shardOf(r, shards), refShardOf(r, shards); got != want {
				t.Fatalf("shardOf(%+v, %d) = %d, byte-wise loop says %d", r.Key, shards, got, want)
			}
		}
	}
	addrs := []netip.Addr{
		{},
		netip.MustParseAddr("0.0.0.0"),
		netip.MustParseAddr("0.0.0.1"),
		netip.MustParseAddr("10.0.0.0"),
		netip.MustParseAddr("198.51.100.7"),
		netip.MustParseAddr("255.255.255.255"),
		netip.MustParseAddr("::ffff:198.51.100.7"),
		netip.MustParseAddr("::ffff:0.0.0.0"),
		netip.MustParseAddr("::"),
		netip.MustParseAddr("::1"),
		netip.MustParseAddr("0:0:0:1::"),
		netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr("2001:db8:0:0:100::"),
		netip.MustParseAddr("ff00::"),
		netip.MustParseAddr("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"),
	}
	for _, src := range addrs {
		for _, dst := range addrs {
			for b := 0; b < 256; b++ {
				for _, k := range []flow.Key{
					{SrcPort: uint16(b) << 8},
					{SrcPort: uint16(b)},
					{DstPort: uint16(b) << 8},
					{DstPort: uint16(b)},
					{Protocol: uint8(b)},
					{SrcPort: uint16(b)<<8 | 1, DstPort: uint16(b), Protocol: uint8(b)},
				} {
					k.Src, k.Dst = src, dst
					check(&flow.Record{Key: k})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 20000; i++ {
		r := randRecord(rng)
		check(&r)
	}
}

// TestShardOfFastPathMatchesBytewise holds shardOf's IPv4 closed form to
// the byte-wise loop: random keys whose addresses are both IPv4 (the
// closed form), both IPv4-mapped IPv6 or one of each (the same 16-byte
// forms, so the same hash), and keys that mix IPv4 with IPv6 or an
// invalid address (the general path).
func TestShardOfFastPathMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	v4 := func() netip.Addr {
		var b [4]byte
		rng.Read(b[:])
		return netip.AddrFrom4(b)
	}
	mapped := func() netip.Addr { return netip.AddrFrom16(v4().As16()) }
	v6 := func() netip.Addr {
		var b [16]byte
		rng.Read(b[:])
		return netip.AddrFrom16(b)
	}
	invalid := func() netip.Addr { return netip.Addr{} }
	pairs := []struct {
		name     string
		src, dst func() netip.Addr
	}{
		{"v4/v4", v4, v4},
		{"mapped/mapped", mapped, mapped},
		{"v4/mapped", v4, mapped},
		{"mapped/v4", mapped, v4},
		{"v4/v6", v4, v6},
		{"v6/v4", v6, v4},
		{"v4/invalid", v4, invalid},
		{"invalid/v4", invalid, v4},
	}
	for _, p := range pairs {
		n := 2000
		if p.name == "v4/v4" {
			n = 20000
		}
		for i := 0; i < n; i++ {
			r := flow.Record{Key: flow.Key{
				Src: p.src(), Dst: p.dst(),
				SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Protocol: uint8(rng.Uint32()),
			}}
			for _, shards := range []int{1, 4, 7, math.MaxInt64} {
				if got, want := shardOf(&r, shards), refShardOf(&r, shards); got != want {
					t.Fatalf("%s: shardOf(%+v, %d) = %d, byte-wise loop says %d", p.name, r.Key, shards, got, want)
				}
			}
		}
	}
}

// appendBatch draws n records whose starts rise evenly from testBase
// across span — one Append call's worth — in arrival order or shuffled.
func appendBatch(n int, span time.Duration, shuffled bool) []flow.Record {
	rng := rand.New(rand.NewSource(61))
	batch := genFlows(rng, testBase, 1, n)
	for i := range batch { // genFlows spreads over the day; pack into span
		batch[i].Start = testBase.Add(span * time.Duration(i) / time.Duration(n))
		batch[i].End = batch[i].Start.Add(time.Second)
	}
	if shuffled {
		rng.Shuffle(n, func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	}
	return batch
}

// shiftBatch moves batch span later, so that the next Append call
// continues where this one ended.
func shiftBatch(batch []flow.Record, span time.Duration) {
	for i := range batch {
		batch[i].Start = batch[i].Start.Add(span)
		batch[i].End = batch[i].End.Add(span)
	}
}

// TestAppendSteadyStateAllocs: once every open segment has flushed a
// block — staging slabs, encoder scratch and frame buffer at size — an
// Append that stages 1024 records and flushes eight blocks into those
// segments allocates nothing (the one allowed is slack for the clock and
// telemetry calls around it), whether rows arrive in order or not.
func TestAppendSteadyStateAllocs(t *testing.T) {
	for _, order := range []string{"sorted", "shuffled"} {
		t.Run(order, func(t *testing.T) {
			const span = time.Minute
			batch := appendBatch(1024, span, order == "shuffled")
			s, err := Open(t.TempDir(), Options{Shards: 4, BlockRecords: 128, NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			appendNext := func() {
				if err := s.Append(batch); err != nil {
					t.Fatal(err)
				}
				shiftBatch(batch, span)
			}
			appendNext()
			appendNext()
			before := s.Stats()
			if before.BlocksWritten < 4 {
				t.Fatalf("warm-up wrote %d blocks, want one per segment at least", before.BlocksWritten)
			}
			const runs = 20
			if allocs := testing.AllocsPerRun(runs, appendNext); allocs > 1 {
				t.Errorf("steady-state Append allocates %.1f times per call, want at most 1", allocs)
			}
			after := s.Stats()
			if got := after.BlocksWritten - before.BlocksWritten; got < 7*(runs+1) {
				t.Errorf("measured calls flushed %d blocks, want about 8 per call", got)
			}
			if after.SegmentsSealed != 0 {
				t.Errorf("measured calls sealed %d segments; the test means to stay inside open ones", after.SegmentsSealed)
			}
		})
	}
}
