package flowstore

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"booterscope/internal/flow"
)

// Block codec: one block holds up to Options.BlockRecords flow records,
// sorted by Start, encoded column by column. Sorted timestamps make the
// start-second column delta-compress to near nothing; addresses are
// split into two uvarint halves of their 16-byte form, which keeps IPv4
// (12 known bytes) at ~8 bytes per address; counters and ports are raw
// uvarints. The encoding is exact: every field of every record —
// including zero counters, max-uint64 counters, pre-1970 timestamps,
// IPv6 and invalid addresses — round-trips bit-for-bit (times compare
// with time.Time.Equal; decoded times are UTC).
//
// Payload layout (format v2): a 0x00 marker byte, uvarint format
// version, uvarint column count, then per column a one-byte encoding
// tag followed by the length-prefixed column bytes. Tag 0 (raw) is a
// plain uvarint stream (one byte per record for the flags and protocol
// columns); tag 1 (dict) is dictionary/bitmap encoding, applied to any
// value column that turns out low-cardinality in a given block
// (protocol, ports, victim-set destination halves, sampling rates,
// timestamp deltas): uvarint(#distinct), the distinct values in
// first-appearance order, then — unless the column is constant — row
// indices bit-packed at the minimal width in {1, 2, 4, 8} bits; tag 2
// (fixed) is described at encFixed. DESIGN.md §14 documents the layout.
//
// The 0x00 marker distinguishes this layout from the retired v1 format
// (a bare sequence of length-prefixed columns, whose first byte was the
// never-zero record count); parse rejects a v1 payload by name.

// Per-record flag bits (column 0) — canonical values live in the flow
// package so columnar consumers share them.
const (
	flagSrcIs4   = flow.FlagSrcIs4
	flagDstIs4   = flow.FlagDstIs4
	flagSrcValid = flow.FlagSrcValid
	flagDstValid = flow.FlagDstValid
	flagEgress   = flow.FlagEgress
)

// Column positions in a block payload.
const (
	colFlagsIdx = iota
	colSrcHiIdx
	colSrcLoIdx
	colDstHiIdx
	colDstLoIdx
	colSrcPortIdx
	colDstPortIdx
	colProtoIdx
	colPacketsIdx
	colBytesIdx
	colStartSecIdx
	colStartNsIdx
	colEndSecIdx
	colEndNsIdx
	colSrcASIdx
	colDstASIdx
	colSamplingIdx
	nCols
)

// Column encoding tags (v2).
const (
	encRaw  byte = 0
	encDict byte = 1
	// encFixed stores values little-endian at a fixed byte width (a
	// width byte, then count*width bytes). The writer picks it for
	// high-entropy wide columns — IPv4-mapped source-address low halves
	// run seven varint bytes per value — where a fixed-stride load
	// decodes in one step instead of a per-byte varint loop.
	encFixed byte = 2
)

// blockFormatV2 is the version uvarint following the 0x00 marker.
const blockFormatV2 = 2

// appendColumn appends a length-prefixed column.
func appendColumn(dst []byte, col []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(col)))
	return append(dst, col...)
}

// zigzag maps signed to unsigned preserving small magnitudes.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

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

// maxDictValues bounds dictionary size; past it a column is not
// low-cardinality and raw encoding wins anyway.
const maxDictValues = 256

// dictWidth returns the packed index width in bits for n distinct
// values: the smallest of {1, 2, 4, 8} that can address them, or 0 for
// a constant column.
func dictWidth(n int) int {
	switch {
	case n <= 1:
		return 0
	case n <= 2:
		return 1
	case n <= 4:
		return 2
	case n <= 16:
		return 4
	default:
		return 8
	}
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

// fixedWidth returns the smallest byte width in {1, 2, 4, 8} that
// holds maxv.
func fixedWidth(maxv uint64) int {
	switch {
	case maxv < 1<<8:
		return 1
	case maxv < 1<<16:
		return 2
	case maxv < 1<<32:
		return 4
	default:
		return 8
	}
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

// encodeBlock encodes records into a v2 column payload: 0x00 marker,
// format version, column count, then per-column encoding tags and
// length-prefixed bytes. ColumnBlock.load plus its column decoders are
// the exact inverse.
func encodeBlock(records []flow.Record) []byte {
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

// colReader iterates one column's uvarints.
type colReader struct {
	b   []byte
	off int
}

func (c *colReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("flowstore: corrupt column varint at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

// parsedBlock is a payload cut into per-column byte slices (views into
// the payload buffer) with their encoding tags.
type parsedBlock struct {
	cols [nCols][]byte
	encs [nCols]byte
}

// parse checks the payload header and fills pb with column views into
// payload (no copying — pb is valid only while payload is).
func (pb *parsedBlock) parse(payload []byte) error {
	*pb = parsedBlock{}
	if len(payload) == 0 {
		return fmt.Errorf("flowstore: empty block payload")
	}
	if payload[0] != 0x00 {
		return fmt.Errorf("flowstore: block payload is in the retired v1 format (no 0x00 marker); regenerate with flowgen")
	}
	off := 1
	ver, n := binary.Uvarint(payload[off:])
	if n <= 0 || ver != blockFormatV2 {
		return fmt.Errorf("flowstore: unsupported block format %d", ver)
	}
	off += n
	ncols, n := binary.Uvarint(payload[off:])
	if n <= 0 || ncols != nCols {
		return fmt.Errorf("flowstore: block column count %d, want %d", ncols, nCols)
	}
	off += n
	for i := 0; i < nCols; i++ {
		if off >= len(payload) {
			return fmt.Errorf("flowstore: truncated column %d tag", i)
		}
		enc := payload[off]
		if enc != encRaw && enc != encDict && enc != encFixed {
			return fmt.Errorf("flowstore: column %d has unknown encoding %d", i, enc)
		}
		off++
		l, n := binary.Uvarint(payload[off:])
		if n <= 0 || off+n+int(l) > len(payload) || l > uint64(len(payload)) {
			return fmt.Errorf("flowstore: corrupt column %d header", i)
		}
		off += n
		pb.encs[i] = enc
		pb.cols[i] = payload[off : off+int(l)]
		off += int(l)
	}
	return nil
}

// dictHeader decodes a dict column's value table, returning the values
// and the packed-index bytes that follow. count bounds the table: a
// dictionary can never hold more distinct values than rows.
func dictHeader(col []byte, count int) (values []uint64, packed []byte, err error) {
	rd := colReader{b: col}
	n, err := rd.uvarint()
	if err != nil {
		return nil, nil, err
	}
	if n == 0 || n > maxDictValues || int(n) > count {
		return nil, nil, fmt.Errorf("flowstore: dict column with %d values for %d rows", n, count)
	}
	values = make([]uint64, n)
	for i := range values {
		values[i], err = rd.uvarint()
		if err != nil {
			return nil, nil, err
		}
	}
	return values, col[rd.off:], nil
}

// fixedHeader validates an encFixed column against the row count and
// returns its width and value bytes.
func fixedHeader(col []byte, count int) (width int, data []byte, err error) {
	if len(col) < 1 {
		return 0, nil, fmt.Errorf("flowstore: empty fixed column")
	}
	w := int(col[0])
	switch w {
	case 1, 2, 4, 8:
	default:
		return 0, nil, fmt.Errorf("flowstore: fixed column width %d", w)
	}
	if len(col)-1 != count*w {
		return 0, nil, fmt.Errorf("flowstore: fixed column length %d, want %d", len(col)-1, count*w)
	}
	return w, col[1:], nil
}
