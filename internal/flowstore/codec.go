package flowstore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"

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
	flagDstIs4   = flow.FlagDstIs4
	flagDstValid = flow.FlagDstValid
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

// zigzag maps signed to unsigned preserving small magnitudes.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

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

// blockEncoder turns one block of staged columns into its on-disk frame.
// A Store owns one for its whole life (Store.mu serialises the write
// path): every buffer grows to the block geometry once and is reused
// for each block after, so steady-state encoding allocates nothing.
type blockEncoder struct {
	frame []byte   // frame under construction: head, index, payload
	vals  []uint64 // one narrow column widened to the codec's uint64 view
	idx   []uint8  // dictionary position of each row of the column probed
	// dict holds that column's distinct values in first-appearance order;
	// slots is the open-addressed value → position+1 table over them,
	// twice maxDictValues so probe chains stay short.
	dict   [maxDictValues]uint64
	slots  [2 * maxDictValues]uint16
	perm   []int32      // stable start-time order of an out-of-order block
	sorted flow.Columns // that block, permuted
}

// startOrder returns, in perm's storage, the permutation that puts c's
// rows in stable (start second, nanosecond) order — the order blocks
// store and ordered scans deliver.
func startOrder(c *flow.Columns, perm []int32) []int32 {
	perm = perm[:0]
	for i := range c.Flags {
		perm = append(perm, int32(i))
	}
	slices.SortStableFunc(perm, func(a, b int32) int {
		if d := cmp.Compare(c.StartSec[a], c.StartSec[b]); d != 0 {
			return d
		}
		return cmp.Compare(c.StartNs[a], c.StartNs[b])
	})
	return perm
}

// sortedCopy returns c's rows in start order as a permuted copy in e's
// scratch. Writers call it only for blocks that arrived out of order.
func (e *blockEncoder) sortedCopy(c *flow.Columns) *flow.Columns {
	e.perm = startOrder(c, e.perm)
	e.sorted.Reset()
	e.sorted.AppendIndexed(c, e.perm)
	return &e.sorted
}

// encode builds the frame of one block — length, CRC, sparse index,
// v2 payload (0x00 marker, format version, column count, then per
// column an encoding tag and length-prefixed bytes) — from columns
// already in start-time order. columnBlock.load plus its column
// decoders are the payload's exact inverse. The frame aliases e's
// scratch and is valid until the next call.
func (e *blockEncoder) encode(c *flow.Columns) ([]byte, blockIndex) {
	n := c.Len()
	if cap(e.vals) < n {
		e.vals, e.idx = make([]uint64, n), make([]uint8, n)
	}
	ix := buildIndex(c)
	f := append(e.frame[:0], make([]byte, frameHeadLen)...) // patched below
	f = ix.marshal(f)
	f = append(f, 0x00)
	f = binary.AppendUvarint(f, blockFormatV2)
	f = binary.AppendUvarint(f, nCols)
	// The flags column is raw by format: its length is the block's
	// record count, which the reader checks before sizing any vector.
	f = append(f, encRaw)
	f = binary.AppendUvarint(f, uint64(n))
	e.frame = append(f, c.Flags...)

	// Value columns, in column-index order.
	vals := e.vals[:n]
	e.appendValueColumn(c.SrcHi, nil)
	e.appendValueColumn(c.SrcLo, nil)
	e.appendValueColumn(c.DstHi, nil)
	e.appendValueColumn(c.DstLo, nil)
	e.appendValueColumn(widen(vals, c.SrcPort), nil)
	e.appendValueColumn(widen(vals, c.DstPort), nil)
	e.appendValueColumn(widen(vals, c.Proto), c.Proto)
	e.appendValueColumn(c.Packets, nil)
	e.appendValueColumn(c.Bytes, nil)
	prev := int64(0)
	for i, s := range c.StartSec {
		vals[i], prev = zigzag(s-prev), s
	}
	e.appendValueColumn(vals, nil)
	e.appendValueColumn(widen(vals, c.StartNs), nil)
	for i, s := range c.EndSec {
		vals[i] = zigzag(s - c.StartSec[i])
	}
	e.appendValueColumn(vals, nil)
	e.appendValueColumn(widen(vals, c.EndNs), nil)
	e.appendValueColumn(widen(vals, c.SrcAS), nil)
	e.appendValueColumn(widen(vals, c.DstAS), nil)
	e.appendValueColumn(widen(vals, c.Sampling), nil)

	f = e.frame
	binary.BigEndian.PutUint32(f[0:4], uint32(len(f)-frameHeadLen))
	binary.BigEndian.PutUint32(f[4:8], crc32.ChecksumIEEE(f[frameHeadLen:]))
	return f, ix
}

// widen copies a narrow column into dst as the uint64s the codec
// encodes.
func widen[T uint8 | uint16 | uint32](dst []uint64, src []T) []uint64 {
	for i, v := range src {
		dst[i] = uint64(v)
	}
	return dst
}

// uvarintLen is the encoded length of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// measure returns the length of vals as a raw uvarint stream and their
// maximum — what the encoding choice needs, without building any form.
func measure(vals []uint64) (rawLen int, maxv uint64) {
	for _, v := range vals {
		rawLen += uvarintLen(v)
		maxv = max(maxv, v)
	}
	return rawLen, maxv
}

// probe builds the dictionary of vals: distinct values into e.dict in
// first-appearance order — deterministic, pinned by the layout golden
// test — and each row's position into e.idx. It gives up, ok=false, at
// the first value past maxDictValues distinct ones.
func (e *blockEncoder) probe(vals []uint64) (distinct int, ok bool) {
	clear(e.slots[:])
	const mask = uint64(len(e.slots) - 1)
	for i, v := range vals {
		h := v * 0x9e3779b97f4a7c15 >> 55 // Fibonacci hash to 9 bits
		for e.slots[h] != 0 && e.dict[e.slots[h]-1] != v {
			h = (h + 1) & mask
		}
		if e.slots[h] == 0 {
			if distinct == maxDictValues {
				return 0, false
			}
			e.dict[distinct] = v
			distinct++
			e.slots[h] = uint16(distinct)
		}
		e.idx[i] = uint8(e.slots[h] - 1)
	}
	return distinct, true
}

// appendValueColumn appends one value column to the frame as encoding
// tag, length and bytes, picking raw, dict or fixed by arithmetic and
// writing only the winner. Dict wins whenever it is no larger than raw
// (cheapest to decode); otherwise the column is high-entropy, and when
// its average varint runs past half the fixed stride the writer trades
// at most ~15% size for fixed-width loads — the columnar scan decodes
// those columns several times faster than a per-byte varint loop.
// Everything else stays raw: a uvarint stream, or for the protocol
// column (rawBytes non-nil) one byte per record, never uvarint-expanded
// — though the choice still weighs its uvarint size. High-entropy
// columns (random source addresses, byte counters) land raw or fixed;
// protocol, ports, victim-set destination halves, near-constant
// sampling rates and the mostly-0/1 sorted-timestamp deltas land dict.
func (e *blockEncoder) appendValueColumn(vals []uint64, rawBytes []uint8) {
	n, f := len(vals), e.frame
	rawLen, maxv := measure(vals)
	if distinct, ok := e.probe(vals); ok {
		w := dictWidth(distinct)
		dictLen, _ := measure(e.dict[:distinct])
		dictLen += uvarintLen(uint64(distinct)) + (n*w+7)/8
		if dictLen <= rawLen {
			f = append(f, encDict)
			f = binary.AppendUvarint(f, uint64(dictLen))
			f = binary.AppendUvarint(f, uint64(distinct))
			for _, d := range e.dict[:distinct] {
				f = binary.AppendUvarint(f, d)
			}
			e.frame = appendPacked(f, e.idx[:n], w)
			return
		}
	}
	if w := fixedWidth(maxv); n > 0 && w > 1 && rawLen > n*(w/2+1) {
		f = append(f, encFixed)
		f = binary.AppendUvarint(f, uint64(1+n*w))
		f = append(f, byte(w))
		for _, v := range vals {
			switch w {
			case 2:
				f = binary.LittleEndian.AppendUint16(f, uint16(v))
			case 4:
				f = binary.LittleEndian.AppendUint32(f, uint32(v))
			default:
				f = binary.LittleEndian.AppendUint64(f, v)
			}
		}
		e.frame = f
		return
	}
	f = append(f, encRaw)
	if rawBytes != nil {
		f = binary.AppendUvarint(f, uint64(n))
		e.frame = append(f, rawBytes...)
		return
	}
	f = binary.AppendUvarint(f, uint64(rawLen))
	for _, v := range vals {
		f = binary.AppendUvarint(f, v)
	}
	e.frame = f
}

// appendPacked appends dictionary positions bit-packed w bits each
// (w in {0, 1, 2, 4, 8}; 0 — a constant column — appends nothing),
// low bits first within a byte.
func appendPacked(f []byte, idx []uint8, w int) []byte {
	if w == 0 {
		return f
	}
	if w == 8 {
		return append(f, idx...)
	}
	for i := 0; i < len(idx); i += 8 / w {
		var b byte
		for j, ix := range idx[i:min(i+8/w, len(idx))] {
			b |= ix << (j * w)
		}
		f = append(f, b)
	}
	return f
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

// dictHeader decodes a dict column's value table into buf's storage
// (grown if it is short), returning the values and the packed-index
// bytes that follow. count bounds the table: a dictionary can never
// hold more distinct values than rows.
func dictHeader(col []byte, count int, buf []uint64) (values []uint64, packed []byte, err error) {
	rd := colReader{b: col}
	n, err := rd.uvarint()
	if err != nil {
		return nil, nil, err
	}
	if n == 0 || n > maxDictValues || int(n) > count {
		return nil, nil, fmt.Errorf("flowstore: dict column with %d values for %d rows", n, count)
	}
	values = u64Scratch(buf, int(n))
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
