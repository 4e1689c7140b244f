package flowstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"booterscope/internal/flow"
)

// ColumnBlock is the scan's working set for one block: the parsed
// per-column byte views, the decoded column vectors, and a selection
// bitmap. Blocks are pooled and recycled across blocks, segments, and
// scans (including across vantage scanners in a federated scan — every
// store shares the same process-wide pool), so a steady-state scan
// allocates nothing per block.
//
// Lifecycle (ownership rules in DESIGN.md §14): obtain with
// getColumnBlock, fill with segmentReader.nextBlockColumnar, filter
// with applyQuery, copy survivors OUT with appendSelected (or swap the
// whole Cols value for the consumer's when every row survives), then
// Release. The decoded column slices belong
// to the block — consumers must never retain a view into cb.Cols past
// Release (the bsvet batchownership analyzer enforces this), which is
// why survivors are compacted by copy into the consumer-owned
// flow.Columns rather than handed out as sub-slices.
//
//bsvet:allow deadcode oracle: TestBatchOwnershipGolden checks the batchownership rule's release discipline on this type
type ColumnBlock struct {
	// pb holds per-column byte views into the loaded payload.
	pb    parsedBlock
	count int
	// Cols holds decoded column vectors; only columns with decoded[i]
	// set contain valid data — the rest keep stale bytes from the
	// previous block and must not be read.
	Cols         flow.Columns
	decoded      [nCols]bool
	decodedCount int
	// sel is the selection bitmap (bit i set = row i survives the
	// pushed-down predicate).
	sel      []uint64
	selCount int
	// dict holds the value table of the dict column being decoded,
	// reused for every dict column of every block.
	dict []uint64
}

// colBlockPool recycles ColumnBlocks process-wide. A single pool —
// rather than per-scanner or per-store buffers — is what lets a
// federated scan's N vantage scanners reuse each other's decode
// buffers instead of growing N private sets.
var colBlockPool = sync.Pool{New: func() any { return new(ColumnBlock) }}

// getColumnBlock fetches a pooled block. Pair with Release.
func getColumnBlock() *ColumnBlock {
	return colBlockPool.Get().(*ColumnBlock)
}

// Release resets the block (keeping buffer capacity) and returns it to
// the pool. The block must not be used afterwards.
//
//bsvet:allow deadcode oracle: TestBatchOwnershipGolden checks the batchownership rule's release discipline on this method
func (cb *ColumnBlock) Release() {
	cb.reset()
	colBlockPool.Put(cb)
}

func (cb *ColumnBlock) reset() {
	cb.count = 0
	cb.Cols.Reset()
	cb.decoded = [nCols]bool{}
	cb.decodedCount = 0
	cb.sel = cb.sel[:0]
	cb.selCount = 0
}

// load parses a block payload for count records and decodes the flags
// column. The flags column is raw one-byte-per-record, so requiring
// len(flags) == count before sizing any vector is the guard against
// payloads whose record count would over-allocate.
func (cb *ColumnBlock) load(payload []byte, count int) error {
	cb.reset()
	if err := cb.pb.parse(payload); err != nil {
		return err
	}
	flagsCol := cb.pb.cols[colFlagsIdx]
	if cb.pb.encs[colFlagsIdx] != encRaw || len(flagsCol) != count {
		return fmt.Errorf("flowstore: flags column length %d, want %d", len(flagsCol), count)
	}
	cb.count = count
	cb.Cols.Resize(count)
	copy(cb.Cols.Flags, flagsCol)
	cb.decoded[colFlagsIdx] = true
	cb.decodedCount = 1
	return nil
}

// decodeUvarints decodes exactly count uvarints from col into dst.
// The one- and two-byte cases are unrolled inline — most column values
// (deltas, dict sizes, small counters) fit them — with a general loop
// as the tail case, byte-compatible with binary.Uvarint in both
// accepted encodings (including overlong forms) and errors.
func decodeUvarints(dst []uint64, col []byte, count int) error {
	off := 0
	for i := 0; i < count; i++ {
		if off < len(col) {
			if b0 := col[off]; b0 < 0x80 {
				dst[i] = uint64(b0)
				off++
				continue
			} else if off+1 < len(col) && col[off+1] < 0x80 {
				dst[i] = uint64(b0&0x7f) | uint64(col[off+1])<<7
				off += 2
				continue
			}
		}
		// General tail, inlined: 3+ byte values (full addresses,
		// nanosecond columns, large counters) are common enough that
		// the binary.Uvarint call overhead shows up in profiles.
		var v uint64
		var shift uint
		j := off
		for {
			if j >= len(col) || shift >= 64 {
				return fmt.Errorf("flowstore: corrupt column varint at offset %d", off)
			}
			b := col[j]
			j++
			if b < 0x80 {
				if shift == 63 && b > 1 {
					return fmt.Errorf("flowstore: corrupt column varint at offset %d", off)
				}
				v |= uint64(b) << shift
				break
			}
			v |= uint64(b&0x7f) << shift
			shift += 7
		}
		dst[i] = v
		off = j
	}
	return nil
}

// decodeDict decodes a dict-encoded column into dst, its value table
// into cb.dict. Range validation of the looked-up values is the
// caller's job.
func (cb *ColumnBlock) decodeDict(dst []uint64, col []byte, count int) error {
	values, packed, err := dictHeader(col, count, cb.dict)
	if err != nil {
		return err
	}
	cb.dict = values
	w := dictWidth(len(values))
	if w == 0 {
		for i := 0; i < count; i++ {
			dst[i] = values[0]
		}
		return nil
	}
	perByte := 8 / w
	if need := (count + perByte - 1) / perByte; len(packed) < need {
		return fmt.Errorf("flowstore: dict index column truncated")
	}
	mask := byte(1<<uint(w) - 1)
	nv := uint64(len(values))
	for i := 0; i < count; i++ {
		ix := packed[i/perByte] >> (uint(i%perByte) * uint(w)) & mask
		if uint64(ix) >= nv {
			return fmt.Errorf("flowstore: dict index %d out of range", ix)
		}
		dst[i] = values[ix]
	}
	return nil
}

// decodeFixed decodes an encFixed column into dst with fixed-stride
// little-endian loads — the vectorized path for high-entropy wide
// columns the writer refused to varint (see appendValueColumn).
func decodeFixed(dst []uint64, col []byte, count int) error {
	w, data, err := fixedHeader(col, count)
	if err != nil {
		return err
	}
	switch w {
	case 1:
		for i := 0; i < count; i++ {
			dst[i] = uint64(data[i])
		}
	case 2:
		for i := 0; i < count; i++ {
			dst[i] = uint64(binary.LittleEndian.Uint16(data[i*2:]))
		}
	case 4:
		for i := 0; i < count; i++ {
			dst[i] = uint64(binary.LittleEndian.Uint32(data[i*4:]))
		}
	default:
		for i := 0; i < count; i++ {
			dst[i] = binary.LittleEndian.Uint64(data[i*8:])
		}
	}
	return nil
}

// u64Scratch sizes a scratch vector, the narrow-column decodes' or a
// dict value table, reusing buf when it is large enough.
func u64Scratch(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// decodeValueCol decodes one value column (any encoding) into a
// uint64 scratch vector.
func (cb *ColumnBlock) decodeValueCol(i int, dst []uint64) error {
	switch cb.pb.encs[i] {
	case encDict:
		return cb.decodeDict(dst, cb.pb.cols[i], cb.count)
	case encFixed:
		return decodeFixed(dst, cb.pb.cols[i], cb.count)
	}
	return decodeUvarints(dst, cb.pb.cols[i], cb.count)
}

// scratch for narrow-column widening, reused across blocks.
var u64ScratchPool = sync.Pool{New: func() any { return new([]uint64) }}

// decodeCol decodes column i into cb.Cols (idempotent). Undecoded
// columns cost nothing — the lazy-materialization saving ScanStats
// reports via ColumnsDecodedFraction.
func (cb *ColumnBlock) decodeCol(i int) error {
	if cb.decoded[i] {
		return nil
	}
	n := cb.count
	var err error
	switch i {
	case colFlagsIdx:
		// Decoded by load.
	case colSrcHiIdx:
		err = cb.decodeValueCol(i, cb.Cols.SrcHi[:n])
	case colSrcLoIdx:
		err = cb.decodeValueCol(i, cb.Cols.SrcLo[:n])
	case colDstHiIdx:
		err = cb.decodeValueCol(i, cb.Cols.DstHi[:n])
	case colDstLoIdx:
		err = cb.decodeValueCol(i, cb.Cols.DstLo[:n])
	case colPacketsIdx:
		err = cb.decodeValueCol(i, cb.Cols.Packets[:n])
	case colBytesIdx:
		err = cb.decodeValueCol(i, cb.Cols.Bytes[:n])
	case colSrcPortIdx:
		err = decodeNarrow(cb, i, cb.Cols.SrcPort[:n], math.MaxUint16, "port value")
	case colDstPortIdx:
		err = decodeNarrow(cb, i, cb.Cols.DstPort[:n], math.MaxUint16, "port value")
	case colProtoIdx:
		err = cb.decodeProtoCol()
	case colStartSecIdx:
		err = cb.decodeStartSec()
	case colStartNsIdx:
		err = decodeNarrow(cb, i, cb.Cols.StartNs[:n], 1e9-1, "nanosecond value")
	case colEndSecIdx:
		err = cb.decodeEndSec()
	case colEndNsIdx:
		err = decodeNarrow(cb, i, cb.Cols.EndNs[:n], 1e9-1, "nanosecond value")
	case colSrcASIdx:
		err = decodeNarrow(cb, i, cb.Cols.SrcAS[:n], math.MaxUint32, "32-bit field")
	case colDstASIdx:
		err = decodeNarrow(cb, i, cb.Cols.DstAS[:n], math.MaxUint32, "32-bit field")
	case colSamplingIdx:
		err = decodeNarrow(cb, i, cb.Cols.Sampling[:n], math.MaxUint32, "32-bit field")
	default:
		err = fmt.Errorf("flowstore: decode of unknown column %d", i)
	}
	if err != nil {
		return err
	}
	cb.decoded[i] = true
	cb.decodedCount++
	return nil
}

// decodeNarrow widens value column i into dst, rejecting values past
// limit (a port, a protocol, a 32-bit field, a nanosecond count).
func decodeNarrow[T uint8 | uint16 | uint32](cb *ColumnBlock, i int, dst []T, limit uint64, what string) error {
	sp := u64ScratchPool.Get().(*[]uint64)
	defer u64ScratchPool.Put(sp)
	*sp = u64Scratch(*sp, cb.count)
	if err := cb.decodeValueCol(i, *sp); err != nil {
		return err
	}
	for j, v := range *sp {
		if v > limit {
			return fmt.Errorf("flowstore: %s out of range", what)
		}
		dst[j] = T(v)
	}
	return nil
}

// decodeProtoCol handles the protocol column's two shapes: a raw byte
// column (one byte per record) or an encoded value column, dispatched
// on its tag.
func (cb *ColumnBlock) decodeProtoCol() error {
	col := cb.pb.cols[colProtoIdx]
	if cb.pb.encs[colProtoIdx] != encRaw {
		return decodeNarrow(cb, colProtoIdx, cb.Cols.Proto[:cb.count], math.MaxUint8, "protocol value")
	}
	if len(col) != cb.count {
		return fmt.Errorf("flowstore: block byte-column length mismatch (%d flags, %d protos, want %d)",
			cb.count, len(col), cb.count)
	}
	copy(cb.Cols.Proto, col)
	return nil
}

// decodeStartSec undoes the zigzag delta chain over block-sorted start
// seconds in one batched loop.
func (cb *ColumnBlock) decodeStartSec() error {
	sp := u64ScratchPool.Get().(*[]uint64)
	defer u64ScratchPool.Put(sp)
	*sp = u64Scratch(*sp, cb.count)
	if err := cb.decodeValueCol(colStartSecIdx, *sp); err != nil {
		return err
	}
	prev := int64(0)
	dst := cb.Cols.StartSec[:cb.count]
	for j, d := range *sp {
		prev += unzigzag(d)
		dst[j] = prev
	}
	return nil
}

// decodeEndSec adds per-row deltas to the (already decoded) start
// seconds.
func (cb *ColumnBlock) decodeEndSec() error {
	if err := cb.decodeCol(colStartSecIdx); err != nil {
		return err
	}
	sp := u64ScratchPool.Get().(*[]uint64)
	defer u64ScratchPool.Put(sp)
	*sp = u64Scratch(*sp, cb.count)
	if err := cb.decodeValueCol(colEndSecIdx, *sp); err != nil {
		return err
	}
	start := cb.Cols.StartSec[:cb.count]
	dst := cb.Cols.EndSec[:cb.count]
	for j, d := range *sp {
		dst[j] = start[j] + unzigzag(d)
	}
	return nil
}

// decodeSet decodes the columns named by set — the step before
// survivors are copied out, taken only when the selection bitmap is
// non-empty. Columns outside the set keep whatever the pooled buffers
// last held; Query.Project documents the resulting contract.
func (cb *ColumnBlock) decodeSet(set ColumnSet) error {
	for i := 0; i < nCols; i++ {
		if set&(1<<i) != 0 {
			if err := cb.decodeCol(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// colPredicate is a Query compiled for columnar evaluation: field
// predicates lowered to integer comparisons against decoded columns,
// plus the set of columns the predicate touches. compilePredicate +
// rowMatches together are the Query's exact record-level semantics —
// including the netip corner cases (an Is4 record address never equals
// an Is4In6 query address; a zoned query address matches nothing,
// since decoded addresses never carry zones) — which the pushdown
// property test pins against a reference predicate over whole records.
type colPredicate struct {
	hasFrom, hasTo bool
	fromSec, toSec int64
	fromNs, toNs   uint32
	hasDst         bool
	dstNever       bool
	dstIs4         bool
	dstHi, dstLo   uint64
	dstPorts       []uint16
	portsEither    []uint16
	hasProto       bool
	protoMask      [4]uint64
	needCols       [nCols]bool
	trivial        bool
}

// compilePredicate lowers q into columnar form.
func compilePredicate(q *Query) colPredicate {
	var p colPredicate
	// Whole-second bounds never consult the nanosecond column:
	// with fromNs == 0 the tiebreak `ns < 0` is false for any value,
	// and with toNs == 0 the tiebreak `ns >= 0` is true for any value,
	// so rowMatches is ns-value-independent and the column need not be
	// decoded (the ScanStats accounting golden pins this elision).
	if !q.From.IsZero() {
		p.hasFrom = true
		p.fromSec, p.fromNs = q.From.Unix(), uint32(q.From.Nanosecond())
		p.needCols[colStartSecIdx] = true
		if p.fromNs != 0 {
			p.needCols[colStartNsIdx] = true
		}
	}
	if !q.To.IsZero() {
		p.hasTo = true
		p.toSec, p.toNs = q.To.Unix(), uint32(q.To.Nanosecond())
		p.needCols[colStartSecIdx] = true
		if p.toNs != 0 {
			p.needCols[colStartNsIdx] = true
		}
	}
	if q.Dst.IsValid() {
		p.hasDst = true
		if q.Dst.Zone() != "" {
			// Decoded addresses never carry zones, so a zoned query
			// address can never compare equal.
			p.dstNever = true
		} else {
			p.dstIs4 = q.Dst.Is4()
			p.dstHi, p.dstLo = flow.AddrHalves(q.Dst)
			p.needCols[colDstHiIdx] = true
			p.needCols[colDstLoIdx] = true
		}
	}
	if len(q.DstPorts) > 0 {
		p.dstPorts = q.DstPorts
		p.needCols[colDstPortIdx] = true
	}
	if len(q.PortsEither) > 0 {
		p.portsEither = q.PortsEither
		p.needCols[colSrcPortIdx] = true
		p.needCols[colDstPortIdx] = true
	}
	if len(q.Protocols) > 0 {
		p.hasProto = true
		for _, pr := range q.Protocols {
			p.protoMask[pr>>6] |= 1 << (pr & 63)
		}
		p.needCols[colProtoIdx] = true
	}
	p.trivial = !p.hasFrom && !p.hasTo && !p.hasDst && !p.hasProto &&
		len(p.dstPorts) == 0 && len(p.portsEither) == 0
	return p
}

// rowMatches evaluates the compiled predicate for one row.
func (p *colPredicate) rowMatches(c *flow.Columns, i int) bool {
	if p.hasFrom {
		if sec := c.StartSec[i]; sec < p.fromSec || (sec == p.fromSec && c.StartNs[i] < p.fromNs) {
			return false
		}
	}
	if p.hasTo {
		if sec := c.StartSec[i]; sec > p.toSec || (sec == p.toSec && c.StartNs[i] >= p.toNs) {
			return false
		}
	}
	if p.hasDst {
		if p.dstNever {
			return false
		}
		f := c.Flags[i]
		if f&flagDstValid == 0 || (f&flagDstIs4 != 0) != p.dstIs4 {
			return false
		}
		if c.DstHi[i] != p.dstHi || c.DstLo[i] != p.dstLo {
			return false
		}
	}
	if len(p.dstPorts) > 0 {
		ok := false
		for _, port := range p.dstPorts {
			if c.DstPort[i] == port {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(p.portsEither) > 0 {
		ok := false
		for _, port := range p.portsEither {
			if c.SrcPort[i] == port || c.DstPort[i] == port {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if p.hasProto {
		if pr := c.Proto[i]; p.protoMask[pr>>6]&(1<<(pr&63)) == 0 {
			return false
		}
	}
	return true
}

// applyQuery decodes only the predicate's columns and fills the
// selection bitmap. Rows filtered out here are never materialized, and
// when no row survives, the block's remaining columns are never
// decoded at all.
func (cb *ColumnBlock) applyQuery(p *colPredicate) error {
	words := (cb.count + 63) / 64
	if cap(cb.sel) < words {
		cb.sel = make([]uint64, words)
	} else {
		cb.sel = cb.sel[:words]
		for i := range cb.sel {
			cb.sel[i] = 0
		}
	}
	if p.trivial {
		for i := range cb.sel {
			cb.sel[i] = ^uint64(0)
		}
		if tail := cb.count & 63; tail != 0 && words > 0 {
			cb.sel[words-1] = 1<<uint(tail) - 1
		}
		cb.selCount = cb.count
		return nil
	}
	for i := 0; i < nCols; i++ {
		if p.needCols[i] {
			if err := cb.decodeCol(i); err != nil {
				return err
			}
		}
	}
	n := 0
	for i := 0; i < cb.count; i++ {
		if p.rowMatches(&cb.Cols, i) {
			cb.sel[i>>6] |= 1 << (uint(i) & 63)
			n++
		}
	}
	cb.selCount = n
	return nil
}

// selected reports whether row i survived the predicate.
func (cb *ColumnBlock) selected(i int) bool {
	return cb.sel[i>>6]&(1<<(uint(i)&63)) != 0
}

// appendSelected copies surviving rows into dst column-wise, using
// bulk range copies for dense runs (the common case: blocks either
// match wholesale or carry a few contiguous survivors). The caller
// owns dst; nothing references cb afterwards.
func (cb *ColumnBlock) appendSelected(dst *flow.Columns) {
	if cb.selCount == 0 {
		return
	}
	if cb.selCount == cb.count {
		dst.AppendRange(&cb.Cols, 0, cb.count)
		return
	}
	for i := 0; i < cb.count; {
		if !cb.selected(i) {
			i++
			continue
		}
		j := i + 1
		for j < cb.count && cb.selected(j) {
			j++
		}
		dst.AppendRange(&cb.Cols, i, j)
		i = j
	}
}
