package pipe

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/telemetry/eventlog"
)

// shardQueueDepth bounds each shard channel in batches. A routing
// producer that outruns a shard blocks on that shard's queue — this
// is the pipeline's backpressure: a slow stage slows the source
// instead of ballooning the heap. Per shard at most depth + 2 slabs
// exist (queued, the one the worker holds, the pending one), so
// memory is capped at shards × (depth + 2) × batch size records.
//
// Two, not more: the live collector's sender window bounds its socket
// queue, but nothing else bounds what a fast decoder parks here, and at
// four slabs the CPU a faster decoder saved came back as hand-off to
// alert tail latency. One slab cost the replay workloads throughput.
// DESIGN.md §9 has the measurements.
const shardQueueDepth = 2

// advancer is the optional stage extension for watermark-driven state
// (the sharded classify.Monitor): after the last record has been
// processed and workers have drained, FanOut.Close calls AdvanceTo
// with the final global watermark on every shard that implements it,
// so shards whose own records stopped early still observe the stream's
// end-of-input clock before Close folds their state.
type advancer interface {
	AdvanceTo(unixSec int64)
}

// FanOut shards a record stream across worker stages by a per-record
// hash key. It is itself a Stage: Process routes each record of the
// incoming batch into a per-shard pending slab, handing a slab to its
// shard's bounded queue at DefaultBatchSize (FlushIdle: sooner); Close
// hands over the rest, joins the workers, and then calls each shard's
// Close serially in index order — the deterministic merge point.
//
// The watermark/sequence sidecars (Batch.Marks, Batch.Seqs) are
// stamped only when a mark filter is set (SetMarkFilter): they exist
// for watermark-driven stages like the sharded classify.Monitor, which
// always configure a filter. Purely order-insensitive stages route
// lean record-only batches and skip the per-record clock bookkeeping.
//
// With a single shard — or a single available CPU, where workers could
// only interleave, not overlap — FanOut skips goroutines and channels
// entirely and drives the shards inline: sharded state and the
// deterministic merge are preserved, but records stop paying for
// channel hops that cannot buy any parallelism.
type FanOut struct {
	key     func(*flow.Record) uint64
	shards  []Stage
	chans   []chan *Batch
	pending []*Batch
	wg      sync.WaitGroup
	inline  bool

	// colKey and colMarkIf are the columnar counterparts of key and
	// markIf. When the incoming batch is columnar and the needed
	// columnar predicates are set, routing reads the column vectors
	// directly and the records are never materialized; otherwise the
	// fan-out falls back to materializing the batch and running the row
	// loop — an unported caller loses speed, never records.
	colKey    func(*flow.Columns, int) uint64
	colMarkIf func(*flow.Columns, int) bool
	// colIdx and colMarks are routeCols's per-batch gather scratch
	// (per-shard row indices; sequential watermark stamps), reused
	// across batches.
	colIdx   [][]int32
	colMarks []int64

	watermark int64
	markIf    func(*flow.Record) bool
	seq       uint64
	routed    bool

	// barrierToken is a sentinel batch (never pooled) that parks a
	// worker at the barrier rendezvous; the release channel and the two
	// wait groups coordinate one Barrier call at a time.
	barrierToken   *Batch
	barrierArrived sync.WaitGroup
	barrierResumed sync.WaitGroup
	barrierRelease chan struct{}

	failed atomic.Bool
	errMu  sync.Mutex
	//bsvet:guards errMu
	firstErr error
}

// NewFanOut builds a fan-out over the given shard stages. key maps a
// record to a hash; records with equal key%len(shards) are processed
// by the same shard in stream order. Workers start immediately for
// len(shards) > 1.
func NewFanOut(key func(*flow.Record) uint64, shards ...Stage) *FanOut {
	if len(shards) == 0 {
		panic("pipe: NewFanOut needs at least one shard")
	}
	f := &FanOut{
		key:          key,
		shards:       shards,
		pending:      make([]*Batch, len(shards)),
		inline:       len(shards) == 1 || runtime.GOMAXPROCS(0) == 1,
		watermark:    math.MinInt64,
		barrierToken: &Batch{},
	}
	for i := range f.pending {
		f.pending[i] = newBatch()
	}
	if !f.inline {
		f.chans = make([]chan *Batch, len(shards))
		for i := range f.chans {
			f.chans[i] = make(chan *Batch, shardQueueDepth)
			f.wg.Add(1)
			go f.worker(i)
		}
	}
	return f
}

func (f *FanOut) worker(s int) {
	defer f.wg.Done()
	for b := range f.chans[s] {
		if b == f.barrierToken {
			// Rendezvous: everything queued before the token has been
			// processed. Park until Barrier releases the world.
			rel := f.barrierRelease
			f.barrierArrived.Done()
			<-rel
			f.barrierResumed.Done()
			continue
		}
		if f.failed.Load() {
			// A peer already failed: drain without processing so the
			// router never blocks on this queue while unwinding.
			b.Release()
			continue
		}
		start := time.Now() //bsvet:allow determinism stage latency telemetry measures host time, not simulated time
		err := f.shards[s].Process(b)
		metricStageLatency.ObserveDuration(time.Since(start)) //bsvet:allow determinism stage latency telemetry measures host time, not simulated time
		b.Release()
		if err != nil {
			metricStageErrors.Inc()
			f.fail(err)
		}
	}
}

func (f *FanOut) fail(err error) {
	f.errMu.Lock()
	latched := f.firstErr == nil
	if latched {
		f.firstErr = err
	}
	f.errMu.Unlock()
	if latched {
		// Only the latched (first) error is emitted: it is the one err()
		// reports and the one that aborted the pipeline.
		eventlog.Active().Emit("pipe", "pipe_stage_error", 0,
			eventlog.A("error", err.Error()))
	}
	f.failed.Store(true)
}

func (f *FanOut) err() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.firstErr
}

// Process routes one incoming batch. The caller keeps ownership of b;
// records are copied into per-shard slabs. Returns the first worker
// error as soon as any shard has failed, which aborts the source.
//
// Columnar batches route column-wise when SetColKey is configured (and
// SetColMarkFilter, if a mark filter is set); otherwise the batch is
// materialized and routed row-wise.
func (f *FanOut) Process(b *Batch) error {
	if f.failed.Load() {
		return f.err()
	}
	f.routed = f.routed || b.Len() > 0
	stamp := f.markIf != nil
	if b.Cols != nil && f.colKey != nil && (!stamp || f.colMarkIf != nil) {
		return f.routeCols(b.Cols)
	}
	return f.routeRows(b.records())
}

// routeRows is the row routing loop. Pending slabs keep whatever shape
// their first append gave them — a record landing on a column-shaped
// slab is appended column-wise, never mixed in as a row.
func (f *FanOut) routeRows(recs []flow.Record) error {
	n := uint64(len(f.shards))
	stamp := f.markIf != nil
	for i := range recs {
		r := &recs[i]
		s := 0
		if n > 1 {
			s = int(f.key(r) % n)
		}
		p := f.pending[s]
		if stamp && f.markIf(r) {
			if ts := r.Start.Unix(); ts > f.watermark {
				f.watermark = ts
			}
		}
		if p.Cols != nil {
			p.Cols.AppendRecord(r)
		} else {
			p.Recs = append(p.Recs, *r)
		}
		if stamp {
			p.Marks = append(p.Marks, f.watermark)
			p.Seqs = append(p.Seqs, f.seq)
			f.seq++
		}
		if p.Len() >= DefaultBatchSize {
			if err := f.flush(s); err != nil {
				return err
			}
		}
	}
	metricRecordsRouted.Add(uint64(len(recs)))
	return nil
}

// routeCols is the columnar routing loop: shard keys and watermark
// advancement read the column vectors directly, and routed rows are
// gathered column-to-column into the shard's pending slab. No
// flow.Record is built anywhere on this path.
//
// The loop runs as scatter/gather: one pass computes each row's shard
// (and, when stamping, the same sequential prefix-max watermark and
// sequence stamps the row loop produces), then each shard's rows are
// bulk-appended with Columns.AppendIndexed — 17 tight per-column loops
// per shard per batch instead of 17 slice appends per record. Pending
// slabs flush after the batch, so they can briefly exceed
// DefaultBatchSize; where a slab is cut cannot change a stage's result
// (pinned by classify's TestShardedHandOverPointsCannotChangeResult).
func (f *FanOut) routeCols(c *flow.Columns) error {
	m := c.Len()
	if m == 0 {
		return nil
	}
	n := uint64(len(f.shards))
	stamp := f.markIf != nil
	if f.colIdx == nil {
		f.colIdx = make([][]int32, len(f.shards))
	}
	idx := f.colIdx
	for s := range idx {
		idx[s] = idx[s][:0]
	}
	if n > 1 {
		for i := 0; i < m; i++ {
			s := f.colKey(c, i) % n
			idx[s] = append(idx[s], int32(i))
		}
	} else {
		for i := 0; i < m; i++ {
			idx[0] = append(idx[0], int32(i))
		}
	}
	var marks []int64
	seq0 := f.seq
	if stamp {
		if cap(f.colMarks) < m {
			f.colMarks = make([]int64, m)
		}
		marks = f.colMarks[:m]
		w := f.watermark
		for i := 0; i < m; i++ {
			if f.colMarkIf(c, i) {
				if ts := c.StartSec[i]; ts > w {
					w = ts
				}
			}
			marks[i] = w
		}
		f.watermark = w
		f.seq += uint64(m)
	}
	for s := range f.shards {
		rows := idx[s]
		if len(rows) == 0 {
			continue
		}
		p := f.pending[s]
		if p.Cols == nil && len(p.Recs) > 0 {
			// Row-shaped slab (from an earlier row batch): convert per
			// record rather than mixing shapes.
			for _, i := range rows {
				p.Recs = append(p.Recs, c.Record(int(i)))
			}
		} else {
			p.ensureCols().AppendIndexed(c, rows)
		}
		if stamp {
			for _, i := range rows {
				p.Marks = append(p.Marks, marks[i])
				p.Seqs = append(p.Seqs, seq0+uint64(i))
			}
		}
		if p.Len() >= DefaultBatchSize {
			if err := f.flush(s); err != nil {
				return err
			}
		}
	}
	metricRecordsRouted.Add(uint64(m))
	return nil
}

// flush hands shard s's pending slab to its worker (or processes it
// inline for the single-shard fast path) and starts a fresh slab.
func (f *FanOut) flush(s int) error {
	p := f.pending[s]
	if p.Len() == 0 {
		return nil
	}
	metricBatchesRouted.Inc()
	if f.inline {
		f.pending[s] = newBatch()
		start := time.Now() //bsvet:allow determinism stage latency telemetry measures host time, not simulated time
		err := f.shards[s].Process(p)
		metricStageLatency.ObserveDuration(time.Since(start)) //bsvet:allow determinism stage latency telemetry measures host time, not simulated time
		p.Release()
		if err != nil {
			metricStageErrors.Inc()
			f.fail(err)
			return err
		}
		return nil
	}
	if f.failed.Load() {
		return f.err() // Close releases the pending slab
	}
	// The fresh slab is taken only once the send is through, so a
	// router blocked on a full queue holds no extra slab.
	f.chans[s] <- p
	f.pending[s] = newBatch()
	metricShardQueueHWM.SetMax(float64(len(f.chans[s])))
	return nil
}

// FlushIdle hands every shard whose queue is empty (inline: every
// shard) whatever its pending slab holds; one with work queued keeps
// filling. Marks and Seqs were stamped at route time, so the cut changes
// no result. The caller serializes it with Process, Barrier and Close.
func (f *FanOut) FlushIdle() error {
	if f.failed.Load() {
		return f.err()
	}
	for s := range f.pending {
		if f.inline || len(f.chans[s]) == 0 {
			if err := f.flush(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close flushes pending slabs, joins the workers, advances every
// Advancer shard to the final global watermark, and closes the shards
// serially in index order. The first error from routing, any worker,
// or any Close is returned; every shard's Close still runs.
func (f *FanOut) Close() error {
	for s := range f.pending {
		if f.failed.Load() {
			break
		}
		f.flush(s)
	}
	for s := range f.pending {
		if f.pending[s] != nil {
			f.pending[s].Release()
			f.pending[s] = nil
		}
	}
	if !f.inline {
		for _, ch := range f.chans {
			close(ch)
		}
		f.wg.Wait()
	}
	err := f.err()
	if f.watermark != math.MinInt64 && err == nil {
		for _, st := range f.shards {
			if a, ok := st.(advancer); ok {
				a.AdvanceTo(f.watermark)
			}
		}
	}
	for _, st := range f.shards {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Watermark reports the maximum record start time (unix seconds)
// routed so far over mark-filtered records; math.MinInt64 before the
// first match or when no mark filter is set.
func (f *FanOut) Watermark() int64 { return f.watermark }

// Seq reports the global sequence number the next routed record will
// be stamped with — equivalently, how many records have been routed
// with stamping enabled. Together with Watermark it is the pipeline
// position a checkpoint records.
func (f *FanOut) Seq() uint64 { return f.seq }

// Resume pre-loads the watermark and sequence counters from a
// checkpoint, so a restarted pipeline stamps records exactly where the
// crashed one left off. Must be called before the first Process.
func (f *FanOut) Resume(watermark int64, seq uint64) {
	if f.routed {
		panic("pipe: Resume after records were routed")
	}
	if watermark > f.watermark {
		f.watermark = watermark
	}
	f.seq = seq
}

// Barrier quiesces the fan-out and runs fn with the world stopped:
// pending slabs are flushed, every worker drains its queue up to a
// rendezvous token and parks, fn runs, and the workers resume. While
// fn runs, every record routed so far has been fully processed by its
// shard and no shard is executing — fn may read and mutate shard state
// without synchronization. This is the drain point checkpointing and
// threshold reloads run at.
//
// Barrier must not race Process or Close: the caller serializes them
// (the service daemon holds its ingest lock across both). Returns the
// pipeline's first error if it has already failed, without running fn.
func (f *FanOut) Barrier(fn func() error) error {
	if f.failed.Load() {
		return f.err()
	}
	for s := range f.pending {
		if err := f.flush(s); err != nil {
			return err
		}
	}
	if f.inline {
		return fn()
	}
	f.barrierRelease = make(chan struct{})
	f.barrierArrived.Add(len(f.chans))
	f.barrierResumed.Add(len(f.chans))
	for _, ch := range f.chans {
		ch <- f.barrierToken
	}
	f.barrierArrived.Wait()
	err := fn()
	close(f.barrierRelease)
	// Wait for every worker to leave the rendezvous before returning,
	// so a subsequent Barrier can reuse the coordination fields.
	f.barrierResumed.Wait()
	return err
}

// SetMarkFilter enables watermark/sequence stamping, restricting
// watermark advancement to records satisfying pred. A watermark-driven
// stage whose serial form only moves its clock on a subset of records
// (classify.Monitor advances on filter-matched records only) needs the
// stamped prefix-max computed over exactly that subset, or the
// parallel run would evict earlier than the serial one. Must be called
// before the first Process.
func (f *FanOut) SetMarkFilter(pred func(*flow.Record) bool) {
	if f.routed {
		panic("pipe: SetMarkFilter after records were routed")
	}
	f.markIf = pred
}

// SetColKey enables columnar routing: for columnar batches, key hashes
// row i of the slab without materializing a record. It must agree with
// the row key function for every record (pipe.KeyDstCols pairs with
// pipe.KeyDst), or parallel and serial runs diverge. Must be called
// before the first Process.
func (f *FanOut) SetColKey(key func(*flow.Columns, int) uint64) {
	if f.routed {
		panic("pipe: SetColKey after records were routed")
	}
	f.colKey = key
}

// SetColMarkFilter is SetMarkFilter's columnar counterpart. When a
// mark filter is set, columnar routing additionally requires this
// predicate (agreeing with the row predicate row-for-row) — without it
// the fan-out materializes batches and stamps through the row loop.
// Must be called before the first Process.
func (f *FanOut) SetColMarkFilter(pred func(*flow.Columns, int) bool) {
	if f.routed {
		panic("pipe: SetColMarkFilter after records were routed")
	}
	f.colMarkIf = pred
}

// Parallelism normalizes a -parallelism flag value: n >= 1 is used as
// given, anything else means runtime.NumCPU().
func Parallelism(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.NumCPU()
}
