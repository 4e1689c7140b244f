package flowstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"time"

	"booterscope/internal/durable"
	"booterscope/internal/flow"
)

// Segment file layout:
//
//	magic (8 bytes "BSFSSEG1")
//	block* — one internal/durable frame each, holding:
//	  index (84 bytes fixed):
//	    u32 recordCount
//	    i64 minStartSec, i64 maxStartSec   (unix seconds, inclusive)
//	    16B minDst, 16B maxDst             (netip.Addr As16 ordering)
//	    32B protocol bitmap                (bit p set if proto p present)
//	  payload — column data (codec.go)
//
// There is no footer: a sealed segment is simply one whose blocks are
// all recorded in the store manifest. Recovery re-scans unsealed files
// frame by frame, truncating the first torn or CRC-corrupt frame and
// everything after it.

var segMagic = [8]byte{'B', 'S', 'F', 'S', 'S', 'E', 'G', '1'}

const (
	blockIndexLen = 4 + 8 + 8 + 16 + 16 + 32
	frameHeadLen  = 8 // u32 len + u32 crc
)

// errTornFrame marks a frame that is incomplete or fails its CRC — the
// expected shape of a crash mid-write, handled by truncation rather
// than failure.
var errTornFrame = errors.New("flowstore: torn frame")

// blockIndex is the per-block sparse index used for pruning.
type blockIndex struct {
	Records     uint32
	MinStartSec int64
	MaxStartSec int64
	MinDst      [16]byte
	MaxDst      [16]byte
	Protocols   [32]byte
}

// protoBit sets protocol p in the bitmap.
func (ix *blockIndex) setProto(p uint8) { ix.Protocols[p>>3] |= 1 << (p & 7) }

// hasProto reports whether protocol p occurs in the block.
func (ix *blockIndex) hasProto(p uint8) bool { return ix.Protocols[p>>3]&(1<<(p&7)) != 0 }

// buildIndex computes the sparse index of a block from its staged
// columns. Destination halves compare as the big-endian 16-byte form
// does: high half first, unsigned.
func buildIndex(c *flow.Columns) blockIndex {
	ix := blockIndex{Records: uint32(c.Len())}
	if c.Len() == 0 {
		return ix
	}
	ix.MinStartSec, ix.MaxStartSec = c.StartSec[0], c.StartSec[0]
	minHi, minLo := c.DstHi[0], c.DstLo[0]
	maxHi, maxLo := minHi, minLo
	for i, hi := range c.DstHi {
		ix.MinStartSec, ix.MaxStartSec = min(ix.MinStartSec, c.StartSec[i]), max(ix.MaxStartSec, c.StartSec[i])
		lo := c.DstLo[i]
		if hi < minHi || hi == minHi && lo < minLo {
			minHi, minLo = hi, lo
		}
		if hi > maxHi || hi == maxHi && lo > maxLo {
			maxHi, maxLo = hi, lo
		}
	}
	binary.BigEndian.PutUint64(ix.MinDst[:8], minHi)
	binary.BigEndian.PutUint64(ix.MinDst[8:], minLo)
	binary.BigEndian.PutUint64(ix.MaxDst[:8], maxHi)
	binary.BigEndian.PutUint64(ix.MaxDst[8:], maxLo)
	for _, p := range c.Proto {
		ix.setProto(p)
	}
	return ix
}

// marshal encodes the fixed-size index.
func (ix *blockIndex) marshal(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, ix.Records)
	dst = binary.BigEndian.AppendUint64(dst, uint64(ix.MinStartSec))
	dst = binary.BigEndian.AppendUint64(dst, uint64(ix.MaxStartSec))
	dst = append(dst, ix.MinDst[:]...)
	dst = append(dst, ix.MaxDst[:]...)
	return append(dst, ix.Protocols[:]...)
}

// unmarshalIndex decodes a fixed-size index.
func unmarshalIndex(b []byte) (blockIndex, error) {
	var ix blockIndex
	if len(b) < blockIndexLen {
		return ix, errTornFrame
	}
	ix.Records = binary.BigEndian.Uint32(b[0:])
	ix.MinStartSec = int64(binary.BigEndian.Uint64(b[4:]))
	ix.MaxStartSec = int64(binary.BigEndian.Uint64(b[12:]))
	copy(ix.MinDst[:], b[20:36])
	copy(ix.MaxDst[:], b[36:52])
	copy(ix.Protocols[:], b[52:84])
	return ix, nil
}

// prunable reports whether the block cannot contain any record matching
// the query — the sparse-index pruning decision. It is conservative:
// false negatives are impossible, the record-level filter stays exact.
func (ix *blockIndex) prunable(q *Query) bool {
	if !q.From.IsZero() && ix.MaxStartSec < q.From.Unix() {
		return true
	}
	if !q.To.IsZero() && ix.MinStartSec > q.To.Unix() {
		return true
	}
	if q.Dst.IsValid() {
		d := q.Dst.As16()
		if bytes.Compare(d[:], ix.MinDst[:]) < 0 || bytes.Compare(d[:], ix.MaxDst[:]) > 0 {
			return true
		}
	}
	if len(q.Protocols) > 0 {
		any := false
		for _, p := range q.Protocols {
			if ix.hasProto(p) {
				any = true
				break
			}
		}
		if !any {
			return true
		}
	}
	return false
}

// segmentWriter is one open segment file. Its caller half — the
// staging slab — belongs to Append and Seal under Store.mu; the file and
// the counts of what is written belong to the shard's flusher once the
// writer exists, and the caller reads them only at a quiescent point.
type segmentWriter struct {
	sw   *shardWriter
	path string
	part int64 // partition start sec
	// cols stages the open block: each record is transposed into it once,
	// at add, and the flusher encodes the block from it.
	cols *flow.Columns
	// unsorted records that some staged row starts before its
	// predecessor; only such blocks pay for the sort.
	unsorted bool

	f       *os.File
	records uint64 // durable records (in fully written blocks)
	blocks  uint64
	bytes   uint64
	minSec  int64
	maxSec  int64
	// broken marks a writer whose file may hold a partial frame after a
	// real write error; further blocks are dropped (and accounted)
	// rather than interleaved with the torn tail, and the segment is
	// never sealed: the next Open truncates the tear and adopts the rest.
	broken bool
	// sealed marks a segment fsynced, closed and ready for the manifest.
	sealed bool
}

// newSegmentWriter creates the file, writes the magic, and takes a
// staging slab.
func newSegmentWriter(sw *shardWriter, path string, part int64, blockRecords int) (*segmentWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(segMagic[:]); err != nil {
		f.Close()
		return nil, err
	}
	return &segmentWriter{
		sw: sw, path: path, part: part, f: f, cols: sw.takeSlab(blockRecords),
		bytes: uint64(len(segMagic)),
	}, nil
}

// add stages one record and reports whether the block is full.
func (w *segmentWriter) add(r *flow.Record, blockRecords int) bool {
	c := w.cols
	c.AppendRecord(r)
	if i := c.Len() - 1; i > 0 && !w.unsorted {
		w.unsorted = c.StartSec[i] < c.StartSec[i-1] ||
			c.StartSec[i] == c.StartSec[i-1] && c.StartNs[i] < c.StartNs[i-1]
	}
	return c.Len() >= blockRecords
}

// entry is the manifest entry of a sealed segment.
func (w *segmentWriter) entry() SegmentEntry {
	return SegmentEntry{
		Shard:        w.sw.id,
		File:         filepath.Base(w.path),
		PartitionSec: w.part,
		Records:      w.records,
		Blocks:       w.blocks,
		Bytes:        w.bytes,
		MinStartSec:  w.minSec,
		MaxStartSec:  w.maxSec,
	}
}

// blockInfo describes one block of a segment file — the inspection view
// tests and tooling use to account for torn tails exactly.
type blockInfo struct {
	Offset     int64
	FrameBytes int
	Records    int
	MinStart   time.Time
	MaxStart   time.Time
	MinDst     netip.Addr
	MaxDst     netip.Addr
}

// segScan is the result of scanning a segment file frame by frame.
type segScan struct {
	blocks    []blockInfo
	records   uint64
	validLen  int64 // file offset after the last valid frame
	torn      bool  // a torn/corrupt frame (or trailing garbage) was found
	tornBytes int64
}

// scanSegmentFile reads every frame, verifying CRCs, and stops at the
// first torn or corrupt frame.
func scanSegmentFile(path string) (*segScan, error) {
	r, err := openSegmentReaderPrefetch(path)
	if err != nil {
		return nil, err
	}
	defer r.close()
	s := &segScan{validLen: int64(r.off)}
	err = durable.Walk(r.data[r.off:], func(off int, body []byte) error {
		ix, err := unmarshalIndex(body)
		if err != nil {
			return err
		}
		s.blocks = append(s.blocks, blockInfo{
			Offset:     int64(r.off + off),
			FrameBytes: frameHeadLen + len(body),
			Records:    int(ix.Records),
			MinStart:   time.Unix(ix.MinStartSec, 0).UTC(),
			MaxStart:   time.Unix(ix.MaxStartSec, 0).UTC(),
			MinDst:     netip.AddrFrom16(ix.MinDst).Unmap(),
			MaxDst:     netip.AddrFrom16(ix.MaxDst).Unmap(),
		})
		s.records += uint64(ix.Records)
		s.validLen = int64(r.off + off + frameHeadLen + len(body))
		return nil
	})
	if err != nil {
		s.torn = true
		s.tornBytes = int64(len(r.data)) - s.validLen
	}
	return s, nil
}

// InspectSegment lists the valid blocks of a segment file, verifying
// every CRC. A torn tail is not an error: the returned blocks cover the
// recoverable prefix only.
//
//bsvet:allow deadcode oracle: TestCrashRecovery and TestRecoveryStopsAtFlippedBit verify recovered segments with it
func InspectSegment(path string) ([]blockInfo, error) {
	s, err := scanSegmentFile(path)
	if err != nil {
		return nil, err
	}
	return s.blocks, nil
}

// segmentReader iterates the matching blocks of one on-disk segment,
// read whole into a pooled buffer: block reads are slice operations.
type segmentReader struct {
	data []byte // the whole segment file
	off  int
	bufp *[]byte // pool slot backing data, returned on close
}

// segBufPool recycles whole-segment buffers across segments and scans.
// Buffers grow to the largest segment seen (a few MB at the default
// geometry) and there are at most a handful in flight — one per
// concurrently scanned shard.
var segBufPool = sync.Pool{New: func() any { return new([]byte) }}

// openSegmentReaderPrefetch reads the entire segment into a pooled
// buffer with one read syscall and iterates blocks as slices of it, so
// a full-archive scan costs one syscall per segment instead of three
// per block. Views handed out by nextBlockColumnar point into the
// buffer and are valid until close.
func openSegmentReaderPrefetch(path string) (*segmentReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	bufp := segBufPool.Get().(*[]byte)
	buf := *bufp
	if int64(cap(buf)) < size {
		buf = make([]byte, size)
	}
	r := &segmentReader{data: buf[:size], off: len(segMagic), bufp: bufp}
	if _, err := io.ReadFull(f, r.data); err != nil {
		r.close()
		return nil, fmt.Errorf("flowstore: reading %s: %w", path, err)
	}
	if len(r.data) < len(segMagic) || [8]byte(r.data[:8]) != segMagic {
		r.close()
		return nil, fmt.Errorf("flowstore: %s: bad segment magic", path)
	}
	return r, nil
}

// close returns the segment buffer to the pool; r is dead afterwards.
func (r *segmentReader) close() {
	*r.bufp = r.data[:0]
	segBufPool.Put(r.bufp)
}

// laterMinStarts appends, for each block from the reader's position on,
// the earliest start second anything after it may hold: later blocks by
// their sparse indexes, what follows the segment by after. A torn frame
// leaves the blocks before it no promise (math.MinInt64);
// nextBlockColumnar reports it when the scan gets there.
func (r *segmentReader) laterMinStarts(dst []int64, after int64) []int64 {
	base := len(dst)
	for off := r.off; off < len(r.data); {
		frame, _, _, err := durable.Next(r.data[off:])
		if err != nil || len(frame) < blockIndexLen {
			after = math.MinInt64
			break
		}
		dst = append(dst, int64(binary.BigEndian.Uint64(frame[4:]))) // blockIndex.MinStartSec
		off += frameHeadLen + len(frame)
	}
	for i := len(dst) - 1; i >= base; i-- {
		dst[i], after = after, min(after, dst[i])
	}
	return dst
}

// nextBlockColumnar parses the next frame's index and, unless the
// query prunes the block, loads its payload into cb as column views —
// decoding is left to the caller's pushed-down predicate. Pruned blocks
// report pruned=true with cb left empty. Returns io.EOF at the end of
// the segment.
func (r *segmentReader) nextBlockColumnar(q *Query, cb *ColumnBlock) (pruned bool, err error) {
	if r.off >= len(r.data) {
		return false, io.EOF
	}
	frame, _, _, err := durable.Next(r.data[r.off:])
	var ix blockIndex
	if err == nil {
		ix, err = unmarshalIndex(frame) // a frame too short for its index is torn too
	}
	if err != nil {
		return false, fmt.Errorf("flowstore: %w at offset %d (unrecovered segment?)", errTornFrame, r.off)
	}
	r.off += frameHeadLen + len(frame)
	if ix.prunable(q) {
		cb.reset()
		return true, nil
	}
	// The payload is a zero-copy view into the segment buffer: valid
	// until the reader closes, and cb only reads it during load and
	// column decode — the decoded columns it hands onward are cb-owned.
	return false, cb.load(frame[blockIndexLen:], int(ix.Records))
}
