// Package pipe is the batch-oriented analysis pipeline every record
// consumer in booterscope runs on: reusable record slabs (Batch) pooled
// with sync.Pool, a Stage interface for serial consumers, and a hash
// fan-out (FanOut) that shards a record stream across bounded worker
// queues and merges per-shard state deterministically on Close.
//
// The pipeline exists because the producers are parallel — the
// flowstore scans segments per shard, the traffic generator emits whole
// days — while the paper's analyses were written as one serial
// func(*flow.Record) callback chain. pipe moves records in batches and
// lets each aggregation run one instance per shard, so the scan →
// classify → analyze path keeps every core busy without giving up the
// replay-equals-live guarantee.
//
// # Batch lifecycle and ownership
//
// A Batch is produced by exactly one party (a scanner, or FanOut when
// it re-slabs routed records) and consumed by exactly one Stage. The
// caller of Process retains ownership: after Process returns, the
// batch may be released and its backing arrays reused, so a stage must
// copy anything it keeps. A producer hands ownership of each emitted
// batch to its consumer via emit; whoever drives the stage (a scan's
// caller, FanOut) releases it.
//
// # Determinism
//
// Every aggregation in the repository is either order-insensitive
// (integer-valued sums, per-key maps — identical under any delivery
// order) or watermark-driven (classify.Monitor eviction). FanOut stamps
// two per-record sidecars to make parallel runs reproduce serial ones
// bit-for-bit: Marks, the running prefix-maximum record start time
// (the watermark a sharded monitor advances its eviction clock with),
// and Seqs, the global record sequence number (the key an emitting
// stage sorts its output by to reproduce serial emission order).
package pipe

import (
	"encoding/binary"
	"math/bits"
	"sync"

	"booterscope/internal/flow"
)

// DefaultBatchSize is the row count at which FanOut hands a pending slab
// over unasked (FlushIdle hands over less) and scans cut their batches —
// small enough that a few queued batches bound memory.
const DefaultBatchSize = 4096

// Batch is a reusable slab of flow records moving through the
// pipeline, with optional per-record sidecars stamped by FanOut.
//
// A batch carries its records in exactly one of two shapes: row form
// (Recs, the original representation) or columnar form (Cols, the
// structure-of-arrays slab the flowstore scan emits). The shapes are
// not mixed — when Cols is non-nil it is the source of truth and Recs
// is only the lazy materialization cache Records() fills on first
// demand, so stages that read columns directly never pay for record
// structs at all.
type Batch struct {
	// Recs are the records; consumers iterate Recs[i] by index and must
	// not retain pointers into the slice past Process. For a columnar
	// batch, Recs is empty until Records() materializes it.
	Recs []flow.Record
	// Cols, when non-nil, holds the batch's records in columnar form.
	// Consumers must not retain Cols or any of its column slices past
	// Process — Release recycles the slab.
	Cols *flow.Columns
	// Marks, when non-nil, holds one watermark per record: the maximum
	// record start time (unix seconds) over every record the fan-out
	// routed up to and including this one, across all shards.
	Marks []int64
	// Seqs, when non-nil, holds one global sequence number per record:
	// the record's position in the source stream before fan-out.
	Seqs []uint64
}

// batchPool recycles batches with whatever row capacity their last use
// grew; a new one has none, so a columnar batch never carries half a
// megabyte of unused records.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// colsPool recycles columnar slabs independently of batches, so row
// batches never carry 17 unused column arrays.
var colsPool = sync.Pool{New: func() any { return new(flow.Columns) }}

// newBatch returns an empty row batch from the pool.
func newBatch() *Batch {
	b := batchPool.Get().(*Batch)
	metricBatchesInFlight.Add(1)
	return b
}

// NewColsBatch returns an empty columnar batch from the pool: Cols is
// attached (and recycled on Release), Recs stays empty until a
// consumer demands records.
func NewColsBatch() *Batch {
	b := newBatch()
	b.Cols = colsPool.Get().(*flow.Columns)
	return b
}

// ensureCols attaches (or returns) the batch's columnar slab —
// producers appending column-wise call this once per batch.
func (b *Batch) ensureCols() *flow.Columns {
	if b.Cols == nil {
		b.Cols = colsPool.Get().(*flow.Columns)
	}
	return b.Cols
}

// Wrap adopts an existing record slice as a batch without copying.
// The caller must not touch recs after Wrap; Release returns the slab
// to the pool for reuse.
func Wrap(recs []flow.Record) *Batch {
	b := batchPool.Get().(*Batch)
	b.Recs = recs
	metricBatchesInFlight.Add(1)
	return b
}

// Len reports the record count.
func (b *Batch) Len() int {
	if b.Cols != nil {
		return b.Cols.Len()
	}
	return len(b.Recs)
}

// records returns the batch's records in row form, materializing them
// from the columnar slab on first call (cached for the batch's
// lifetime). Stages that need whole flow.Records call this; stages
// ported to read b.Cols directly skip the copy entirely — that skip is
// the lazy-materialization win of the columnar hot path.
func (b *Batch) records() []flow.Record {
	if b.Cols != nil && len(b.Recs) == 0 && b.Cols.Len() > 0 {
		b.Recs = b.Cols.MaterializeAppend(b.Recs)
	}
	return b.Recs
}

// Release resets the batch and returns it to the pool. The batch and
// its slices must not be used afterwards. A columnar slab goes back to
// its own pool, so pooled batches are always row-shaped until a
// producer attaches columns again.
func (b *Batch) Release() {
	b.Recs = b.Recs[:0]
	if b.Cols != nil {
		b.Cols.Reset()
		colsPool.Put(b.Cols)
		b.Cols = nil
	}
	b.Marks = b.Marks[:0]
	b.Seqs = b.Seqs[:0]
	metricBatchesInFlight.Add(-1)
	batchPool.Put(b)
}

// Stage consumes batches serially: Process is never called
// concurrently on one stage, and Close is called exactly once after
// the last Process. Close is where a sharded stage folds its state
// into the merged result — the engine calls it on the driving
// goroutine, shard by shard in index order, so merge code needs no
// locking.
type Stage interface {
	Process(b *Batch) error
	Close() error
}

// StageFunc adapts a pair of funcs to Stage; either may be nil.
type StageFunc struct {
	ProcessFn func(b *Batch) error
	CloseFn   func() error
}

// Process implements Stage.
func (s StageFunc) Process(b *Batch) error {
	if s.ProcessFn == nil {
		return nil
	}
	return s.ProcessFn(b)
}

// Close implements Stage.
func (s StageFunc) Close() error {
	if s.CloseFn == nil {
		return nil
	}
	return s.CloseFn()
}

// multiStage drives several stages over the same batches — how one
// scan of a source feeds several aggregations in a single pass.
type multiStage []Stage

// MultiStage composes stages into one: Process feeds each stage the
// same batch in order, Close closes each in order (first error wins,
// every Close still runs).
func MultiStage(stages ...Stage) Stage {
	if len(stages) == 1 {
		return stages[0]
	}
	return multiStage(stages)
}

// Process implements Stage.
func (m multiStage) Process(b *Batch) error {
	for _, st := range m {
		if err := st.Process(b); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Stage.
func (m multiStage) Close() error {
	var first error
	for _, st := range m {
		if err := st.Close(); first == nil {
			first = err
		}
	}
	return first
}

// AdvanceTo forwards the final watermark to every composed stage that
// is watermark-driven.
func (m multiStage) AdvanceTo(unixSec int64) {
	for _, st := range m {
		if a, ok := st.(advancer); ok {
			a.AdvanceTo(unixSec)
		}
	}
}

// fnv1aAddr folds a netip.Addr into an FNV-1a-style hash, word-wise
// rather than byte-wise: two multiply rounds per address keep the
// per-record routing cost negligible, and any deterministic key works
// — shard assignment never shows in the output (the golden parallelism
// tests pin this).
func fnv1aAddr(h uint64, a [16]byte) uint64 {
	const prime64 = 1099511628211
	h ^= binary.LittleEndian.Uint64(a[:8])
	h *= prime64
	h ^= binary.LittleEndian.Uint64(a[8:])
	h *= prime64
	return h
}

const fnvOffset64 = 14695981039346656037

// KeyDst routes records by destination (victim) address: every record
// about one victim lands on the same shard, which is what keeps the
// per-victim aggregations (classify, attack counting) shard-local and
// their merge exact.
func KeyDst(r *flow.Record) uint64 {
	return KeyDstAddr(r.Dst.As16())
}

// KeyDstAddr is KeyDst over a raw 16-byte address — checkpoint restore
// uses it to re-shard saved per-victim state with exactly the routing
// the live fan-out applies.
func KeyDstAddr(a [16]byte) uint64 {
	return fnv1aAddr(fnvOffset64, a)
}

// KeyDstCols is KeyDst evaluated directly against a columnar slab —
// the fan-out's columnar routing path hashes the raw address halves
// without materializing a record or a 16-byte array: fnv1aAddr reads
// the address little-endian while the halves are big-endian words, so
// a byte swap per half reproduces KeyDst bit-exactly for every address
// shape (including invalid addresses, whose halves and As16 are both
// zero). The columnar fan-out golden pins the equality.
func KeyDstCols(c *flow.Columns, i int) uint64 {
	const prime64 = 1099511628211
	h := uint64(fnvOffset64)
	h ^= bits.ReverseBytes64(c.DstHi[i])
	h *= prime64
	h ^= bits.ReverseBytes64(c.DstLo[i])
	h *= prime64
	return h
}
