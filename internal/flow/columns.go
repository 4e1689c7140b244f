package flow

import (
	"encoding/binary"
	"net/netip"
	"time"
)

// Columns is the columnar (structure-of-arrays) form of a run of flow
// records: one array per Record field, all kept in lockstep. It is the
// hot-path representation shared by the flowstore block decoder, the
// pipe columnar batches, and the classify counting paths — decode fills
// arrays with batched varint loops, predicates test raw column values,
// and full Records (netip.Addr, time.Time) are materialized only when a
// consumer demands them.
//
// Addresses are stored as the two big-endian uint64 halves of their
// 16-byte form plus per-row flag bits (validity, 4-vs-16,
// direction) — exactly the flowstore codec's wire model — so equality
// and hashing never construct a netip.Addr. Times are (unix second,
// nanosecond) pairs; Record reconstructs them with time.Unix(...).UTC(),
// the instant the encoded record carried.
type Columns struct {
	// Flags holds the per-row Flag* bits.
	Flags []uint8
	// SrcHi/SrcLo and DstHi/DstLo are the big-endian address halves.
	SrcHi, SrcLo []uint64
	DstHi, DstLo []uint64
	SrcPort      []uint16
	DstPort      []uint16
	Proto        []uint8
	Packets      []uint64
	Bytes        []uint64
	StartSec     []int64
	StartNs      []uint32
	EndSec       []int64
	EndNs        []uint32
	SrcAS        []uint32
	DstAS        []uint32
	Sampling     []uint32
}

// Per-row flag bits (the flowstore block codec's column 0).
const (
	FlagSrcIs4 uint8 = 1 << iota
	FlagDstIs4
	FlagSrcValid
	FlagDstValid
	FlagEgress
)

// AddrHalves splits an address's 16-byte form into two big-endian
// uint64 halves. Invalid addresses yield zero halves; flag bits record
// validity and the 4/16 distinction so reconstruction is exact.
func AddrHalves(a netip.Addr) (hi, lo uint64) {
	b := a.As16()
	return binary.BigEndian.Uint64(b[0:8]), binary.BigEndian.Uint64(b[8:16])
}

// addrFromHalves reconstructs an address from its halves and flag bits
// — the exact inverse of AddrHalves under the flag convention.
func addrFromHalves(hi, lo uint64, valid, is4 bool) netip.Addr {
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

// Len reports the row count.
func (c *Columns) Len() int { return len(c.Flags) }

// Reset truncates every column to zero rows, keeping capacity — the
// pooled-slab recycle point.
func (c *Columns) Reset() {
	c.Flags = c.Flags[:0]
	c.SrcHi, c.SrcLo = c.SrcHi[:0], c.SrcLo[:0]
	c.DstHi, c.DstLo = c.DstHi[:0], c.DstLo[:0]
	c.SrcPort, c.DstPort = c.SrcPort[:0], c.DstPort[:0]
	c.Proto = c.Proto[:0]
	c.Packets, c.Bytes = c.Packets[:0], c.Bytes[:0]
	c.StartSec, c.StartNs = c.StartSec[:0], c.StartNs[:0]
	c.EndSec, c.EndNs = c.EndSec[:0], c.EndNs[:0]
	c.SrcAS, c.DstAS = c.SrcAS[:0], c.DstAS[:0]
	c.Sampling = c.Sampling[:0]
}

// resize grows or shrinks s to length n, reusing capacity.
func resizeU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func resizeI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func resizeU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func resizeU16(s []uint16, n int) []uint16 {
	if cap(s) < n {
		return make([]uint16, n)
	}
	return s[:n]
}

func resizeU8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}

// Resize sets every column to n rows (contents unspecified), reusing
// capacity — the decode target shape: column decoders index-write into
// the arrays instead of appending.
func (c *Columns) Resize(n int) {
	c.Flags = resizeU8(c.Flags, n)
	c.SrcHi, c.SrcLo = resizeU64(c.SrcHi, n), resizeU64(c.SrcLo, n)
	c.DstHi, c.DstLo = resizeU64(c.DstHi, n), resizeU64(c.DstLo, n)
	c.SrcPort, c.DstPort = resizeU16(c.SrcPort, n), resizeU16(c.DstPort, n)
	c.Proto = resizeU8(c.Proto, n)
	c.Packets, c.Bytes = resizeU64(c.Packets, n), resizeU64(c.Bytes, n)
	c.StartSec, c.StartNs = resizeI64(c.StartSec, n), resizeU32(c.StartNs, n)
	c.EndSec, c.EndNs = resizeI64(c.EndSec, n), resizeU32(c.EndNs, n)
	c.SrcAS, c.DstAS = resizeU32(c.SrcAS, n), resizeU32(c.DstAS, n)
	c.Sampling = resizeU32(c.Sampling, n)
}

// AppendRecord appends one materialized record as a row.
func (c *Columns) AppendRecord(r *Record) {
	var flags uint8
	if r.Src.IsValid() {
		flags |= FlagSrcValid
		if r.Src.Is4() {
			flags |= FlagSrcIs4
		}
	}
	if r.Dst.IsValid() {
		flags |= FlagDstValid
		if r.Dst.Is4() {
			flags |= FlagDstIs4
		}
	}
	if r.Direction == Egress {
		flags |= FlagEgress
	}
	shi, slo := AddrHalves(r.Src)
	dhi, dlo := AddrHalves(r.Dst)
	c.Flags = append(c.Flags, flags)
	c.SrcHi, c.SrcLo = append(c.SrcHi, shi), append(c.SrcLo, slo)
	c.DstHi, c.DstLo = append(c.DstHi, dhi), append(c.DstLo, dlo)
	c.SrcPort, c.DstPort = append(c.SrcPort, r.SrcPort), append(c.DstPort, r.DstPort)
	c.Proto = append(c.Proto, r.Protocol)
	c.Packets, c.Bytes = append(c.Packets, r.Packets), append(c.Bytes, r.Bytes)
	c.StartSec = append(c.StartSec, r.Start.Unix())
	c.StartNs = append(c.StartNs, uint32(r.Start.Nanosecond()))
	c.EndSec = append(c.EndSec, r.End.Unix())
	c.EndNs = append(c.EndNs, uint32(r.End.Nanosecond()))
	c.SrcAS, c.DstAS = append(c.SrcAS, r.SrcAS), append(c.DstAS, r.DstAS)
	c.Sampling = append(c.Sampling, r.SamplingRate)
}

// AppendFrom appends row i of o.
func (c *Columns) AppendFrom(o *Columns, i int) {
	c.Flags = append(c.Flags, o.Flags[i])
	c.SrcHi, c.SrcLo = append(c.SrcHi, o.SrcHi[i]), append(c.SrcLo, o.SrcLo[i])
	c.DstHi, c.DstLo = append(c.DstHi, o.DstHi[i]), append(c.DstLo, o.DstLo[i])
	c.SrcPort, c.DstPort = append(c.SrcPort, o.SrcPort[i]), append(c.DstPort, o.DstPort[i])
	c.Proto = append(c.Proto, o.Proto[i])
	c.Packets, c.Bytes = append(c.Packets, o.Packets[i]), append(c.Bytes, o.Bytes[i])
	c.StartSec, c.StartNs = append(c.StartSec, o.StartSec[i]), append(c.StartNs, o.StartNs[i])
	c.EndSec, c.EndNs = append(c.EndSec, o.EndSec[i]), append(c.EndNs, o.EndNs[i])
	c.SrcAS, c.DstAS = append(c.SrcAS, o.SrcAS[i]), append(c.DstAS, o.DstAS[i])
	c.Sampling = append(c.Sampling, o.Sampling[i])
}

// AppendRange appends rows [lo, hi) of o column-wise — the dense-
// selection fast path (whole surviving runs copy as memmoves instead of
// row-by-row appends).
func (c *Columns) AppendRange(o *Columns, lo, hi int) {
	c.Flags = append(c.Flags, o.Flags[lo:hi]...)
	c.SrcHi, c.SrcLo = append(c.SrcHi, o.SrcHi[lo:hi]...), append(c.SrcLo, o.SrcLo[lo:hi]...)
	c.DstHi, c.DstLo = append(c.DstHi, o.DstHi[lo:hi]...), append(c.DstLo, o.DstLo[lo:hi]...)
	c.SrcPort, c.DstPort = append(c.SrcPort, o.SrcPort[lo:hi]...), append(c.DstPort, o.DstPort[lo:hi]...)
	c.Proto = append(c.Proto, o.Proto[lo:hi]...)
	c.Packets, c.Bytes = append(c.Packets, o.Packets[lo:hi]...), append(c.Bytes, o.Bytes[lo:hi]...)
	c.StartSec, c.StartNs = append(c.StartSec, o.StartSec[lo:hi]...), append(c.StartNs, o.StartNs[lo:hi]...)
	c.EndSec, c.EndNs = append(c.EndSec, o.EndSec[lo:hi]...), append(c.EndNs, o.EndNs[lo:hi]...)
	c.SrcAS, c.DstAS = append(c.SrcAS, o.SrcAS[lo:hi]...), append(c.DstAS, o.DstAS[lo:hi]...)
	c.Sampling = append(c.Sampling, o.Sampling[lo:hi]...)
}

// AppendIndexed appends the rows of o selected by idx, in idx order —
// the fan-out's gather primitive: one tight loop per column instead of
// one 17-column AppendFrom call per routed row.
func (c *Columns) AppendIndexed(o *Columns, idx []int32) {
	c.Flags = appendIndexed(c.Flags, o.Flags, idx)
	c.SrcHi, c.SrcLo = appendIndexed(c.SrcHi, o.SrcHi, idx), appendIndexed(c.SrcLo, o.SrcLo, idx)
	c.DstHi, c.DstLo = appendIndexed(c.DstHi, o.DstHi, idx), appendIndexed(c.DstLo, o.DstLo, idx)
	c.SrcPort, c.DstPort = appendIndexed(c.SrcPort, o.SrcPort, idx), appendIndexed(c.DstPort, o.DstPort, idx)
	c.Proto = appendIndexed(c.Proto, o.Proto, idx)
	c.Packets, c.Bytes = appendIndexed(c.Packets, o.Packets, idx), appendIndexed(c.Bytes, o.Bytes, idx)
	c.StartSec, c.StartNs = appendIndexed(c.StartSec, o.StartSec, idx), appendIndexed(c.StartNs, o.StartNs, idx)
	c.EndSec, c.EndNs = appendIndexed(c.EndSec, o.EndSec, idx), appendIndexed(c.EndNs, o.EndNs, idx)
	c.SrcAS, c.DstAS = appendIndexed(c.SrcAS, o.SrcAS, idx), appendIndexed(c.DstAS, o.DstAS, idx)
	c.Sampling = appendIndexed(c.Sampling, o.Sampling, idx)
}

// appendIndexed grows dst by len(idx) and gathers src[idx[k]] into the
// new tail.
func appendIndexed[T any](dst, src []T, idx []int32) []T {
	base := len(dst)
	need := base + len(idx)
	if cap(dst) < need {
		grown := make([]T, need, max(need, 2*cap(dst)))
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:need]
	}
	out := dst[base:]
	for k, j := range idx {
		out[k] = src[j]
	}
	return dst
}

// Src materializes row i's source address.
func (c *Columns) Src(i int) netip.Addr {
	f := c.Flags[i]
	return addrFromHalves(c.SrcHi[i], c.SrcLo[i], f&FlagSrcValid != 0, f&FlagSrcIs4 != 0)
}

// Dst materializes row i's destination address.
func (c *Columns) Dst(i int) netip.Addr {
	f := c.Flags[i]
	return addrFromHalves(c.DstHi[i], c.DstLo[i], f&FlagDstValid != 0, f&FlagDstIs4 != 0)
}

// SrcAs16 returns row i's source in 16-byte form without constructing
// a netip.Addr — As16 of the materialized address, bit for bit.
func (c *Columns) SrcAs16(i int) (b [16]byte) {
	binary.BigEndian.PutUint64(b[0:8], c.SrcHi[i])
	binary.BigEndian.PutUint64(b[8:16], c.SrcLo[i])
	return b
}

// DstAs16 returns row i's destination in 16-byte form — the hash key
// the victim-routed fan-out and the attack counter use.
func (c *Columns) DstAs16(i int) (b [16]byte) {
	binary.BigEndian.PutUint64(b[0:8], c.DstHi[i])
	binary.BigEndian.PutUint64(b[8:16], c.DstLo[i])
	return b
}

// start materializes row i's start time.
func (c *Columns) start(i int) time.Time {
	return time.Unix(c.StartSec[i], int64(c.StartNs[i])).UTC()
}

// End materializes row i's end time.
func (c *Columns) End(i int) time.Time {
	return time.Unix(c.EndSec[i], int64(c.EndNs[i])).UTC()
}

// ScaledBytes is Record.ScaledBytes for row i.
func (c *Columns) ScaledBytes(i int) uint64 {
	if s := c.Sampling[i]; s > 1 {
		return c.Bytes[i] * uint64(s)
	}
	return c.Bytes[i]
}

// ScaledPackets is Record.ScaledPackets for row i.
func (c *Columns) ScaledPackets(i int) uint64 {
	if s := c.Sampling[i]; s > 1 {
		return c.Packets[i] * uint64(s)
	}
	return c.Packets[i]
}

// AvgPacketSize is Record.AvgPacketSize for row i.
func (c *Columns) AvgPacketSize(i int) float64 {
	if c.Packets[i] == 0 {
		return 0
	}
	return float64(c.Bytes[i]) / float64(c.Packets[i])
}

// Record materializes row i, byte-identical to the record the row
// decoder would have produced for the same block row.
func (c *Columns) Record(i int) Record {
	f := c.Flags[i]
	return Record{
		Key: Key{
			Src:      c.Src(i),
			Dst:      c.Dst(i),
			SrcPort:  c.SrcPort[i],
			DstPort:  c.DstPort[i],
			Protocol: c.Proto[i],
		},
		Packets:      c.Packets[i],
		Bytes:        c.Bytes[i],
		Start:        c.start(i),
		End:          c.End(i),
		SrcAS:        c.SrcAS[i],
		DstAS:        c.DstAS[i],
		Direction:    directionOf(f),
		SamplingRate: c.Sampling[i],
	}
}

func directionOf(flags uint8) Direction {
	if flags&FlagEgress != 0 {
		return Egress
	}
	return Ingress
}

// MaterializeAppend appends every row as a full Record.
func (c *Columns) MaterializeAppend(dst []Record) []Record {
	n := c.Len()
	if cap(dst)-len(dst) < n {
		grown := make([]Record, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	for i := 0; i < n; i++ {
		dst = append(dst, c.Record(i))
	}
	return dst
}
