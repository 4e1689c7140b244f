package flowstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
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
		values, packed, err := dictHeader(col, count)
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
				Src:      flow.AddrFromHalves(c[colSrcHiIdx][j], c[colSrcLoIdx][j], f&flagSrcValid != 0, f&flagSrcIs4 != 0),
				Dst:      flow.AddrFromHalves(c[colDstHiIdx][j], c[colDstLoIdx][j], f&flagDstValid != 0, f&flagDstIs4 != 0),
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
	sort.SliceStable(segs, func(a, b int) bool {
		if segs[a].Shard != segs[b].Shard {
			return segs[a].Shard < segs[b].Shard
		}
		if segs[a].PartitionSec != segs[b].PartitionSec {
			return segs[a].PartitionSec < segs[b].PartitionSec
		}
		return segs[a].File < segs[b].File
	})
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
