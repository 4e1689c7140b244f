package flowstore

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"booterscope/internal/flow"
)

// The reference implementations the scan path is tested against. They
// trade all speed for being obviously right: whole records, one value
// at a time, the standard library's varint reader, no pruning, no
// pooling, no laziness. Nothing here is reachable from production code.

// refMatches is the exact record-level meaning of a Query, written
// against whole records.
func refMatches(q *Query, r *flow.Record) bool {
	if !q.From.IsZero() && r.Start.Before(q.From) {
		return false
	}
	if !q.To.IsZero() && !r.Start.Before(q.To) {
		return false
	}
	if q.Dst.IsValid() && r.Dst != q.Dst {
		return false
	}
	if len(q.DstPorts) > 0 && !slices.Contains(q.DstPorts, r.DstPort) {
		return false
	}
	if len(q.PortsEither) > 0 && !slices.Contains(q.PortsEither, r.SrcPort) && !slices.Contains(q.PortsEither, r.DstPort) {
		return false
	}
	if len(q.Protocols) > 0 && !slices.Contains(q.Protocols, r.Protocol) {
		return false
	}
	return true
}

// refColumn decodes column i of a parsed payload into count values.
func refColumn(pb *parsedBlock, i, count int) ([]uint64, error) {
	col, out := pb.cols[i], make([]uint64, count)
	switch pb.encs[i] {
	case encRaw:
		if i == colProtoIdx { // raw protocol is one byte per record
			if len(col) != count {
				return nil, fmt.Errorf("ref: protocol column length %d, want %d", len(col), count)
			}
			for j := range out {
				out[j] = uint64(col[j])
			}
			break
		}
		for j := range out {
			v, n := binary.Uvarint(col)
			if n <= 0 {
				return nil, fmt.Errorf("ref: column %d: bad varint at row %d", i, j)
			}
			out[j], col = v, col[n:]
		}
	case encDict:
		values, packed, err := dictHeader(col, count, nil)
		if err != nil {
			return nil, err
		}
		w := dictWidth(len(values))
		for j := range out {
			ix := 0
			if w > 0 {
				bit := j * w
				if bit/8 >= len(packed) {
					return nil, fmt.Errorf("ref: column %d: dict indices truncated at row %d", i, j)
				}
				ix = int(packed[bit/8]>>(bit%8)) & (1<<w - 1)
			}
			if ix >= len(values) {
				return nil, fmt.Errorf("ref: column %d: dict index %d out of range", i, ix)
			}
			out[j] = values[ix]
		}
	case encFixed:
		w, data, err := fixedHeader(col, count)
		if err != nil {
			return nil, err
		}
		for j := range out {
			var le [8]byte
			copy(le[:], data[j*w:(j+1)*w])
			out[j] = binary.LittleEndian.Uint64(le[:])
		}
	}
	return out, nil
}

// refDecodeBlock decodes a block payload into count whole records,
// rejecting every value a record field cannot hold.
func refDecodeBlock(payload []byte, count int) ([]flow.Record, error) {
	var pb parsedBlock
	if err := pb.parse(payload); err != nil {
		return nil, err
	}
	flags := pb.cols[colFlagsIdx]
	if pb.encs[colFlagsIdx] != encRaw || len(flags) != count {
		return nil, fmt.Errorf("ref: flags column length %d, want %d", len(flags), count)
	}
	var c [nCols][]uint64
	for i := colSrcHiIdx; i < nCols; i++ {
		var err error
		if c[i], err = refColumn(&pb, i, count); err != nil {
			return nil, err
		}
	}
	recs := make([]flow.Record, count)
	var startSec int64
	for j := range recs {
		for _, lim := range []struct {
			col int
			max uint64
		}{
			{colSrcPortIdx, math.MaxUint16}, {colDstPortIdx, math.MaxUint16}, {colProtoIdx, math.MaxUint8},
			{colStartNsIdx, 1e9 - 1}, {colEndNsIdx, 1e9 - 1},
			{colSrcASIdx, math.MaxUint32}, {colDstASIdx, math.MaxUint32}, {colSamplingIdx, math.MaxUint32},
		} {
			if c[lim.col][j] > lim.max {
				return nil, fmt.Errorf("ref: column %d row %d: value %d out of range", lim.col, j, c[lim.col][j])
			}
		}
		f := flags[j]
		startSec += unzigzag(c[colStartSecIdx][j])
		dir := flow.Ingress
		if f&flagEgress != 0 {
			dir = flow.Egress
		}
		recs[j] = flow.Record{
			Key: flow.Key{
				Src:      refAddrFromHalves(c[colSrcHiIdx][j], c[colSrcLoIdx][j], f&flagSrcValid != 0, f&flagSrcIs4 != 0),
				Dst:      refAddrFromHalves(c[colDstHiIdx][j], c[colDstLoIdx][j], f&flagDstValid != 0, f&flagDstIs4 != 0),
				SrcPort:  uint16(c[colSrcPortIdx][j]),
				DstPort:  uint16(c[colDstPortIdx][j]),
				Protocol: uint8(c[colProtoIdx][j]),
			},
			Packets:      c[colPacketsIdx][j],
			Bytes:        c[colBytesIdx][j],
			Start:        time.Unix(startSec, int64(c[colStartNsIdx][j])).UTC(),
			End:          time.Unix(startSec+unzigzag(c[colEndSecIdx][j]), int64(c[colEndNsIdx][j])).UTC(),
			SrcAS:        uint32(c[colSrcASIdx][j]),
			DstAS:        uint32(c[colDstASIdx][j]),
			Direction:    dir,
			SamplingRate: uint32(c[colSamplingIdx][j]),
		}
	}
	return recs, nil
}

// refScan is the reference for Store.Scan: walk every sealed segment
// frame by frame (checking each CRC, consulting no index), decode with
// refDecodeBlock, keep what refMatches keeps, and stable-sort by
// (Start, shard) — which leaves ties in per-shard ingest order, the
// documented merge order.
func refScan(t testing.TB, s *Store, q Query) []flow.Record {
	t.Helper()
	type tagged struct {
		rec   flow.Record
		shard int
	}
	segs := s.Segments()
	sort.SliceStable(segs, func(a, b int) bool { return segmentBefore(&segs[a], &segs[b]) })
	var all []tagged
	for _, e := range segs {
		path := filepath.Join(s.Dir(), fmt.Sprintf("shard-%02d", e.Shard), e.File)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := len(segMagic); off < len(data); {
			frameLen := int(binary.BigEndian.Uint32(data[off:]))
			body := data[off+frameHeadLen : off+frameHeadLen+frameLen]
			if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[off+4:]) {
				t.Fatalf("%s: CRC mismatch at offset %d", path, off)
			}
			recs, err := refDecodeBlock(body[blockIndexLen:], int(binary.BigEndian.Uint32(body)))
			if err != nil {
				t.Fatalf("%s: reference decode at offset %d: %v", path, off, err)
			}
			for i := range recs {
				if refMatches(&q, &recs[i]) {
					all = append(all, tagged{recs[i], e.Shard})
				}
			}
			off += frameHeadLen + frameLen
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		if !all[a].rec.Start.Equal(all[b].rec.Start) {
			return all[a].rec.Start.Before(all[b].rec.Start)
		}
		return all[a].shard < all[b].shard
	})
	out := make([]flow.Record, len(all))
	for i := range all {
		out[i] = all[i].rec
	}
	return out
}

// stage transposes records into columns the way segmentWriter.add does.
func stage(records []flow.Record) *flow.Columns {
	c := new(flow.Columns)
	for i := range records {
		c.AppendRecord(&records[i])
	}
	return c
}

// encodeBlock runs the production encoder over records in the order
// given and returns a copy of the payload (the frame minus head and
// index) — the record-shaped entry point tests use.
func encodeBlock(records []flow.Record) []byte {
	var e blockEncoder
	frame, _ := e.encode(stage(records))
	return slices.Clone(frame[frameHeadLen+blockIndexLen:])
}

// The reference encoder: the production block encoder as it stood before
// the write path staged columns at Append and chose encodings by
// arithmetic, moved here verbatim (only encodeBlock's name changed). It
// gathers rows into fresh uint64 columns, materialises the raw, dict and
// fixed form of every column and keeps one. The production encoder must
// produce its payload byte for byte (TestEncoderMatchesReference,
// FuzzDecodeBlock, TestLayoutDigestGolden).

// appendColumn appends a length-prefixed column.
func appendColumn(dst []byte, col []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(col)))
	return append(dst, col...)
}

// addrHalves splits an address's 16-byte form into two big-endian
// uint64 halves (see flow.AddrHalves).
func addrHalves(a netip.Addr) (hi, lo uint64) { return flow.AddrHalves(a) }

// blockValues is the column-major staging area encodeBlock fills before
// choosing per-column encodings.
type blockValues struct {
	flags []byte
	proto []byte
	// vals holds the 14 uvarint value columns (indices colSrcHiIdx..,
	// excluding flags and proto) as raw uint64s; time columns hold their
	// zigzag deltas.
	vals [nCols][]uint64
}

// gather fills the staging arrays from records.
func (bv *blockValues) gather(records []flow.Record) {
	bv.flags = bv.flags[:0]
	bv.proto = bv.proto[:0]
	for i := colSrcHiIdx; i < nCols; i++ {
		if i == colProtoIdx {
			continue
		}
		bv.vals[i] = bv.vals[i][:0]
	}
	prevStartSec := int64(0)
	for i := range records {
		r := &records[i]
		var flags byte
		if r.Src.IsValid() {
			flags |= flagSrcValid
			if r.Src.Is4() {
				flags |= flagSrcIs4
			}
		}
		if r.Dst.IsValid() {
			flags |= flagDstValid
			if r.Dst.Is4() {
				flags |= flagDstIs4
			}
		}
		if r.Direction == flow.Egress {
			flags |= flagEgress
		}
		bv.flags = append(bv.flags, flags)
		bv.proto = append(bv.proto, r.Protocol)

		shi, slo := addrHalves(r.Src)
		dhi, dlo := addrHalves(r.Dst)
		bv.vals[colSrcHiIdx] = append(bv.vals[colSrcHiIdx], shi)
		bv.vals[colSrcLoIdx] = append(bv.vals[colSrcLoIdx], slo)
		bv.vals[colDstHiIdx] = append(bv.vals[colDstHiIdx], dhi)
		bv.vals[colDstLoIdx] = append(bv.vals[colDstLoIdx], dlo)
		bv.vals[colSrcPortIdx] = append(bv.vals[colSrcPortIdx], uint64(r.SrcPort))
		bv.vals[colDstPortIdx] = append(bv.vals[colDstPortIdx], uint64(r.DstPort))
		bv.vals[colPacketsIdx] = append(bv.vals[colPacketsIdx], r.Packets)
		bv.vals[colBytesIdx] = append(bv.vals[colBytesIdx], r.Bytes)

		ssec := r.Start.Unix()
		bv.vals[colStartSecIdx] = append(bv.vals[colStartSecIdx], zigzag(ssec-prevStartSec))
		prevStartSec = ssec
		bv.vals[colStartNsIdx] = append(bv.vals[colStartNsIdx], uint64(r.Start.Nanosecond()))
		bv.vals[colEndSecIdx] = append(bv.vals[colEndSecIdx], zigzag(r.End.Unix()-ssec))
		bv.vals[colEndNsIdx] = append(bv.vals[colEndNsIdx], uint64(r.End.Nanosecond()))

		bv.vals[colSrcASIdx] = append(bv.vals[colSrcASIdx], uint64(r.SrcAS))
		bv.vals[colDstASIdx] = append(bv.vals[colDstASIdx], uint64(r.DstAS))
		bv.vals[colSamplingIdx] = append(bv.vals[colSamplingIdx], uint64(r.SamplingRate))
	}
}

// appendUvarints appends vals as a raw uvarint stream.
func appendUvarints(dst []byte, vals []uint64) []byte {
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

// dictEncode builds the dict form of a value column, reporting ok=false
// when the column is not low-cardinality enough to dictionary-encode.
// Distinct values are listed in first-appearance order — deterministic,
// pinned by the layout golden test.
func dictEncode(vals []uint64) (data []byte, ok bool) {
	var distinct []uint64
	idx := make([]uint8, len(vals))
	pos := make(map[uint64]uint8, 16)
	for i, v := range vals {
		j, seen := pos[v]
		if !seen {
			if len(distinct) >= maxDictValues {
				return nil, false
			}
			j = uint8(len(distinct))
			distinct = append(distinct, v)
			pos[v] = j
		}
		idx[i] = j
	}
	data = binary.AppendUvarint(data, uint64(len(distinct)))
	for _, d := range distinct {
		data = binary.AppendUvarint(data, d)
	}
	w := dictWidth(len(distinct))
	if w > 0 {
		perByte := 8 / w
		packed := (len(vals) + perByte - 1) / perByte
		start := len(data)
		data = append(data, make([]byte, packed)...)
		for i, ix := range idx {
			data[start+i/perByte] |= ix << (uint(i%perByte) * uint(w))
		}
	}
	return data, true
}

// fixedEncode builds the encFixed form of a value column: one width
// byte, then the values little-endian at that stride.
func fixedEncode(vals []uint64, width int) []byte {
	data := make([]byte, 1+len(vals)*width)
	data[0] = byte(width)
	off := 1
	for _, v := range vals {
		switch width {
		case 1:
			data[off] = byte(v)
		case 2:
			binary.LittleEndian.PutUint16(data[off:], uint16(v))
		case 4:
			binary.LittleEndian.PutUint32(data[off:], uint32(v))
		default:
			binary.LittleEndian.PutUint64(data[off:], v)
		}
		off += width
	}
	return data
}

// encodeValueColumn picks raw, dict, or fixed encoding for one uvarint
// value column, returning the tag and column bytes. Dict wins whenever
// it is no larger than raw (cheapest to decode); otherwise the column
// is high-entropy, and when its average varint runs past half the
// fixed stride the writer trades at most ~15% size for fixed-width
// loads — the columnar scan decodes those columns several times faster
// than a per-byte varint loop. Everything else stays raw.
func encodeValueColumn(vals []uint64) (byte, []byte) {
	raw := appendUvarints(nil, vals)
	dict, ok := dictEncode(vals)
	if ok && len(dict) <= len(raw) {
		return encDict, dict
	}
	if len(vals) > 0 {
		var maxv uint64
		for _, v := range vals {
			if v > maxv {
				maxv = v
			}
		}
		if w := fixedWidth(maxv); w > 1 && len(raw) > len(vals)*(w/2+1) {
			return encFixed, fixedEncode(vals, w)
		}
	}
	return encRaw, raw
}

// dictableColumns marks the columns the writer attempts dictionary
// encoding on: every value column. The per-block size comparison in
// encodeValueColumn keeps whichever form is smaller, so high-entropy
// columns (random source addresses, byte counters) still land raw
// while the low-cardinality ones — protocol, ports, victim-set
// destination halves, near-constant sampling rates, and the mostly-0/1
// sorted-timestamp deltas — decode via bit-unpack + table lookup
// instead of per-row varints. Only the flags column is excluded: the
// format fixes it as a raw byte column (its length is the block's
// record count, which the reader checks before sizing any vector).
var dictableColumns = [nCols]bool{
	colSrcHiIdx:    true,
	colSrcLoIdx:    true,
	colDstHiIdx:    true,
	colDstLoIdx:    true,
	colSrcPortIdx:  true,
	colDstPortIdx:  true,
	colProtoIdx:    true,
	colPacketsIdx:  true,
	colBytesIdx:    true,
	colStartSecIdx: true,
	colStartNsIdx:  true,
	colEndSecIdx:   true,
	colEndNsIdx:    true,
	colSrcASIdx:    true,
	colDstASIdx:    true,
	colSamplingIdx: true,
}

// refEncodeBlock encodes records into a v2 column payload: 0x00 marker,
// format version, column count, then per-column encoding tags and
// length-prefixed bytes. columnBlock.load plus its column decoders are
// the exact inverse.
func refEncodeBlock(records []flow.Record) []byte {
	var bv blockValues
	bv.gather(records)

	var encs [nCols]byte
	var cols [nCols][]byte
	cols[colFlagsIdx] = bv.flags
	for i := colSrcHiIdx; i < nCols; i++ {
		if i == colProtoIdx {
			protoVals := make([]uint64, len(bv.proto))
			for j, p := range bv.proto {
				protoVals[j] = uint64(p)
			}
			encs[i], cols[i] = encodeValueColumn(protoVals)
			if encs[i] == encRaw {
				// Raw protocol is a byte column, one byte per record, never
				// uvarint-expanded.
				cols[i] = bv.proto
			}
			continue
		}
		if dictableColumns[i] {
			encs[i], cols[i] = encodeValueColumn(bv.vals[i])
			continue
		}
		encs[i], cols[i] = encRaw, appendUvarints(nil, bv.vals[i])
	}

	size := 2 + binary.MaxVarintLen64
	for _, c := range cols {
		size += len(c) + binary.MaxVarintLen64 + 1
	}
	out := make([]byte, 0, size)
	out = append(out, 0x00)
	out = binary.AppendUvarint(out, blockFormatV2)
	out = binary.AppendUvarint(out, nCols)
	for i, c := range cols {
		out = append(out, encs[i])
		out = appendColumn(out, c)
	}
	return out
}

// refBuildIndex is the sparse index computed from whole records, one
// As16 per row — the record-shaped buildIndex the column-reading one
// replaced.
func refBuildIndex(records []flow.Record) blockIndex {
	ix := blockIndex{Records: uint32(len(records))}
	for i := range records {
		r := &records[i]
		sec := r.Start.Unix()
		d := r.Dst.As16()
		if i == 0 {
			ix.MinStartSec, ix.MaxStartSec = sec, sec
			ix.MinDst, ix.MaxDst = d, d
		} else {
			if sec < ix.MinStartSec {
				ix.MinStartSec = sec
			}
			if sec > ix.MaxStartSec {
				ix.MaxStartSec = sec
			}
			if bytes.Compare(d[:], ix.MinDst[:]) < 0 {
				ix.MinDst = d
			}
			if bytes.Compare(d[:], ix.MaxDst[:]) > 0 {
				ix.MaxDst = d
			}
		}
		ix.setProto(r.Protocol)
	}
	return ix
}

// refShardOf is shard routing as the byte-at-a-time FNV-1a loop it was
// first written as. Shard assignment is on-disk layout: shardOf may get
// faster, never different.
func refShardOf(r *flow.Record, shards int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	src, dst := r.Src.As16(), r.Dst.As16()
	for _, b := range src {
		mix(b)
	}
	for _, b := range dst {
		mix(b)
	}
	mix(byte(r.SrcPort >> 8))
	mix(byte(r.SrcPort))
	mix(byte(r.DstPort >> 8))
	mix(byte(r.DstPort))
	mix(r.Protocol)
	return int(h % uint64(shards))
}

// encodeBlockV1 writes the retired v1 payload — a bare sequence of
// length-prefixed raw columns — so tests can show the reader rejects it.
func encodeBlockV1(records []flow.Record) []byte {
	var bv blockValues
	bv.gather(records)
	var out []byte
	for i := 0; i < nCols; i++ {
		switch i {
		case colFlagsIdx:
			out = appendColumn(out, bv.flags)
		case colProtoIdx:
			out = appendColumn(out, bv.proto)
		default:
			out = appendColumn(out, appendUvarints(nil, bv.vals[i]))
		}
	}
	return out
}

// The reference ordered scan: the production path as it stood while the
// ordered scan still built rows — every survivor of a (shard, partition)
// materialized into records and stable-sorted by start time, the shard
// streams funnelled through a container/heap merge that compares
// time.Time. Moved here verbatim; Store.ScanOrdered, Store.Scan and
// federation's Coordinator.Scan must reproduce its order exactly
// (TestOrderedScanMatchesReference).

// RecordStream is a pull-based stream of records in nondecreasing
// start-time order — the seam MergeStreams funnels. Next returns the
// next record, or false when the stream is exhausted or failed; the
// returned pointer is valid only until the following Next call. After
// Next returns false, Err distinguishes clean exhaustion (nil) from
// failure. A stream's internal order must be deterministic for the
// merged order to be.
type RecordStream interface {
	Next() (*flow.Record, bool)
	Err() error
}

// mergeHeap orders stream heads by (Start, stream ordinal): the
// ordinal is the stream's index at merge construction, so equal
// timestamps resolve to a fixed stream priority and, within one
// stream, to that stream's own deterministic order. For a single-store
// Scan the ordinal is the shard index; for a federated merge it is the
// vantage's position in the (name-sorted) manifest.
type mergeHeap []*mergeItem

type mergeItem struct {
	rec    *flow.Record
	stream RecordStream
	ord    int
}

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if !h[i].rec.Start.Equal(h[j].rec.Start) {
		return h[i].rec.Start.Before(h[j].rec.Start)
	}
	return h[i].ord < h[j].ord
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(*mergeItem)) }
func (h *mergeHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// merger is the k-way merge that stood behind both MergeStreams and the
// row Cursor:
// ascending Start, ties broken by stream index, then by each stream's
// own record order. A stream error ends the merge as soon as it is
// observed — the first failure surfaces in err — and because every
// stream's Err is read at the moment it runs dry, a clean end means no
// stream failed.
type merger struct {
	streams []RecordStream
	h       mergeHeap
	started bool
	err     error
}

// next steps past the head it returned last and reports the new head
// (stream ordinal and record), or false at the end or on a stream
// error. The first call primes the heap with every stream's first
// record.
func (m *merger) next() (*mergeItem, bool) {
	switch {
	case m.err != nil:
		return nil, false
	case !m.started:
		m.started = true
		m.h = make(mergeHeap, 0, len(m.streams))
		for i, s := range m.streams {
			if r, ok := s.Next(); ok {
				m.h = append(m.h, &mergeItem{rec: r, stream: s, ord: i})
			} else if m.err = s.Err(); m.err != nil {
				return nil, false
			}
		}
		heap.Init(&m.h)
	case len(m.h) > 0:
		it := m.h[0]
		if r, ok := it.stream.Next(); ok {
			it.rec = r
			heap.Fix(&m.h, 0)
		} else {
			heap.Pop(&m.h)
			if m.err = it.stream.Err(); m.err != nil {
				return nil, false
			}
		}
	}
	if len(m.h) == 0 {
		return nil, false
	}
	return m.h[0], true
}

// refMerge (MergeStreams, until the ordered scan went columnar) funnels k time-ordered record streams into one
// deterministic stream: ascending Start, ties broken by stream index,
// then by each stream's own record order. fn receives the index of the
// stream each record came from; a non-nil error from fn aborts the
// merge and is returned. A stream error aborts the merge as soon as it
// is observed — the first failure surfaces, remaining streams are left
// for the caller to cancel/clean up (flowstore cursors do both in
// Close).
func refMerge(streams []RecordStream, fn func(i int, r *flow.Record) error) error {
	m := merger{streams: streams}
	for {
		it, ok := m.next()
		if !ok {
			return m.err
		}
		if err := fn(it.ord, it.rec); err != nil {
			return err
		}
	}
}

// materializeSelected appends surviving rows to dst as records — the
// sorted-scan path, which must hand ordered flow.Records to the k-way
// merge.
func (cb *ColumnBlock) materializeSelected(dst []flow.Record) []flow.Record {
	if cb.selCount == 0 {
		return dst
	}
	if need := len(dst) + cb.selCount; cap(dst) < need {
		grown := make([]flow.Record, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for i := 0; i < cb.count; i++ {
		if cb.selected(i) {
			dst = append(dst, cb.Cols.Record(i))
		}
	}
	return dst
}

// refShardRows is the old sorted scanShard for one shard, run to
// completion: per partition, every block's survivors materialized in
// segment-then-block order and stable-sorted by start time.
func refShardRows(t testing.TB, s *Store, shard int, q Query) []flow.Record {
	t.Helper()
	var segs []SegmentEntry
	for _, e := range s.Segments() {
		if e.Shard == shard {
			segs = append(segs, e)
		}
	}
	sort.SliceStable(segs, func(a, b int) bool { return segmentBefore(&segs[a], &segs[b]) })
	pred := compilePredicate(&q)
	cb := getColumnBlock()
	defer cb.Release()
	var out []flow.Record
	for i := 0; i < len(segs); {
		j := i + 1
		for j < len(segs) && segs[j].PartitionSec == segs[i].PartitionSec {
			j++
		}
		var part []flow.Record
		for _, e := range segs[i:j] {
			r, err := openSegmentReaderPrefetch(filepath.Join(s.Dir(), fmt.Sprintf("shard-%02d", shard), e.File))
			if err != nil {
				t.Fatal(err)
			}
			for {
				_, err := r.nextBlockColumnar(&Query{}, cb) // no pruning: the predicate decides
				if err != nil {
					break
				}
				if err := cb.applyQuery(&pred); err != nil {
					t.Fatal(err)
				}
				if err := cb.decodeSet(AllColumns); err != nil {
					t.Fatal(err)
				}
				part = cb.materializeSelected(part)
			}
			r.close()
		}
		sort.SliceStable(part, func(a, b int) bool { return part[a].Start.Before(part[b].Start) })
		out = append(out, part...)
		i = j
	}
	return out
}

// refOrderedScan is the reference for the ordered scan of one store:
// refMerge over the shards' reference streams.
func refOrderedScan(t testing.TB, s *Store, q Query) (recs []flow.Record) {
	t.Helper()
	var streams []RecordStream
	for shard := 0; shard < s.opts.Shards; shard++ {
		streams = append(streams, &sliceStream{recs: refShardRows(t, s, shard, q), failAt: -1})
	}
	if err := refMerge(streams, func(_ int, r *flow.Record) error {
		recs = append(recs, *r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// refAddrFromHalves reconstructs an address from its halves and flag
// bits — the exact inverse of flow.AddrHalves under the flag convention.
func refAddrFromHalves(hi, lo uint64, valid, is4 bool) netip.Addr {
	if !valid {
		return netip.Addr{}
	}
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], hi)
	binary.BigEndian.PutUint64(b[8:16], lo)
	a := netip.AddrFrom16(b)
	if is4 {
		return a.Unmap()
	}
	return a
}

// The flag bits only the reference codec reads; the production codec
// filters on the destination bits alone.
const (
	flagSrcIs4   = flow.FlagSrcIs4
	flagSrcValid = flow.FlagSrcValid
	flagEgress   = flow.FlagEgress
)
