package flowstore

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/netip"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"booterscope/internal/pipe"
)

// Query selects records for a Scan. The zero value matches everything.
// Field predicates AND together; list predicates (ports, protocols)
// OR within the list.
type Query struct {
	// From and To bound record start times to the half-open interval
	// [From, To). Zero times leave the respective side unbounded.
	From, To time.Time
	// Dst, when valid, matches only records toward that destination —
	// the victim-drilldown predicate.
	Dst netip.Addr
	// DstPorts, when non-empty, matches any of the given destination
	// ports (the reflector-trigger predicate: 123/53/11211).
	DstPorts []uint16
	// PortsEither, when non-empty, matches records whose source OR
	// destination port is in the list — the single-pass analysis
	// predicate: trigger traffic toward reflectors and amplified
	// responses back share a port set but not a direction. Not
	// index-prunable; it narrows record-level filtering only.
	PortsEither []uint16
	// Protocols, when non-empty, matches any of the given IP protocols.
	Protocols []uint8
	// Project, when non-zero, names the column groups the caller will
	// read from delivered columnar batches; the scans then skip
	// decoding every other column (predicate columns are always
	// decoded, and so is ColStart on an ordered scan: it is the
	// merge key). Projected-out columns in delivered batches hold
	// unspecified values, so a projecting caller must consume batches
	// columnar — materializing records from a projected batch yields
	// garbage in the omitted fields. Scan hands out whole records and
	// therefore always decodes everything. Zero means all columns.
	Project ColumnSet
}

// ColumnSet selects block columns for Query.Project, at record-field
// granularity. Groups bundle the physical columns a field read needs:
// addresses pull in the flags column (validity/Is4 bits), end times
// pull in start seconds (the end column is delta-encoded against it).
type ColumnSet uint32

const (
	// ColSrcAddr and ColDstAddr cover one endpoint address each.
	ColSrcAddr ColumnSet = 1<<colSrcHiIdx | 1<<colSrcLoIdx | 1<<colFlagsIdx
	ColDstAddr ColumnSet = 1<<colDstHiIdx | 1<<colDstLoIdx | 1<<colFlagsIdx
	// ColSrcPort, ColDstPort, and ColProto are the transport header
	// fields.
	ColSrcPort ColumnSet = 1 << colSrcPortIdx
	ColDstPort ColumnSet = 1 << colDstPortIdx
	ColProto   ColumnSet = 1 << colProtoIdx
	// ColCounters covers packets, bytes, and the sampling rate — the
	// scaled-volume trio (ScaledPackets/ScaledBytes/AvgPacketSize all
	// read them together).
	ColCounters ColumnSet = 1<<colPacketsIdx | 1<<colBytesIdx | 1<<colSamplingIdx
	// ColStartSec is start time at whole-second precision — enough for
	// the study's minute/day binning. ColStart adds the nanosecond
	// column for full-precision starts.
	ColStartSec ColumnSet = 1 << colStartSecIdx
	ColStart    ColumnSet = 1<<colStartSecIdx | 1<<colStartNsIdx
	// ColEnd covers full-precision end times.
	//bsvet:allow deadcode oracle: TestCorrelateReadsOnlyWhatItProjects corrupts these columns to prove Correlate never reads them
	ColEnd ColumnSet = 1<<colEndSecIdx | 1<<colEndNsIdx | 1<<colStartSecIdx
	// ColAS covers both AS-number columns.
	//bsvet:allow deadcode oracle: TestCorrelateReadsOnlyWhatItProjects corrupts these columns to prove Correlate never reads them
	ColAS ColumnSet = 1<<colSrcASIdx | 1<<colDstASIdx
	// AllColumns selects everything (the Project zero-value behavior).
	AllColumns ColumnSet = 1<<nCols - 1
)

// segPrunable prunes a whole segment from its manifest entry.
func (q *Query) segPrunable(e *SegmentEntry) bool {
	if !q.From.IsZero() && e.MaxStartSec < q.From.Unix() {
		return true
	}
	if !q.To.IsZero() && e.MinStartSec > q.To.Unix() {
		return true
	}
	return false
}

// ScanStats accounts one Scan call: what the sparse indexes pruned and
// what had to be decoded.
type ScanStats struct {
	// SegmentsScanned and SegmentsPruned count sealed segments visited
	// vs skipped entirely from manifest time ranges.
	SegmentsScanned int
	SegmentsPruned  int
	// BlocksScanned and BlocksPruned count blocks decoded vs skipped
	// via per-block sparse indexes.
	BlocksScanned int
	BlocksPruned  int
	// RecordsScanned counts decoded records; RecordsMatched counts
	// records that passed the exact predicate and reached the caller.
	RecordsScanned uint64
	RecordsMatched uint64
	// ColumnsDecoded and ColumnsTotal count per-block column decodes:
	// every scanned (non-pruned) block contributes its column count to
	// ColumnsTotal, and only the columns actually decoded — the
	// predicate's columns, plus the projected rest when any row
	// survives — to ColumnsDecoded.
	ColumnsDecoded uint64
	ColumnsTotal   uint64
}

// Merge folds another scan's accounting into s — the one accumulation
// path shared by the per-scanner aggregation inside every scan and
// by cross-store callers (the federation coordinator sums per-vantage
// stats with it).
func (s *ScanStats) Merge(o ScanStats) {
	s.SegmentsScanned += o.SegmentsScanned
	s.SegmentsPruned += o.SegmentsPruned
	s.BlocksScanned += o.BlocksScanned
	s.BlocksPruned += o.BlocksPruned
	s.RecordsScanned += o.RecordsScanned
	s.RecordsMatched += o.RecordsMatched
	s.ColumnsDecoded += o.ColumnsDecoded
	s.ColumnsTotal += o.ColumnsTotal
}

// PruneFraction is the share of visited blocks the indexes skipped.
//
//bsvet:allow deadcode oracle: TestScanPruning and TestScanStatsColumnsDecoded check index pruning with it
func (s ScanStats) PruneFraction() float64 {
	total := s.BlocksScanned + s.BlocksPruned
	if total == 0 {
		return 0
	}
	return float64(s.BlocksPruned) / float64(total)
}

// ColumnsDecodedFraction is the share of scanned blocks' columns the
// lazy decode actually paid for — 1.0 means every column of every
// scanned block, lower means predicate pushdown or projection skipped
// whole columns.
func (s ScanStats) ColumnsDecodedFraction() float64 {
	if s.ColumnsTotal == 0 {
		return 0
	}
	return float64(s.ColumnsDecoded) / float64(s.ColumnsTotal)
}

// shardBatch is one slab, or the failure, an ordered shard scanner sends
// the merge. The slab lives in a pooled pipe.Batch: scanners recycle
// slabs through the pool instead of allocating one per block, so a
// steady-state scan stops feeding the garbage collector.
type shardBatch struct {
	batch *pipe.Batch
	err   error
}

// scanRun is one launched ordered scan: a scanner goroutine per shard,
// each feeding its own channel in outs (the merge needs each shard's
// stream apart) and closing it on exit, cancelled by closing done, each
// reporting its accounting on statsCh.
type scanRun struct {
	begin   time.Time
	stats   ScanStats // plan-time pruning; stop adds the scanners' share
	statsCh chan ScanStats
	done    chan struct{}
	outs    []chan shardBatch
}

// launch snapshots the manifest and starts one ordered scanner per
// shard for q.
func (s *Store) launch(q Query) *scanRun {
	begin := time.Now() //bsvet:allow determinism scan latency telemetry measures host time, not simulated time
	shards, dir, segs, stats := s.planScan(q)
	byShard := make([][]SegmentEntry, shards)
	for _, e := range segs {
		byShard[e.Shard] = append(byShard[e.Shard], e)
	}
	run := &scanRun{
		begin:   begin,
		stats:   stats,
		statsCh: make(chan ScanStats, shards),
		done:    make(chan struct{}),
		outs:    make([]chan shardBatch, shards),
	}
	for shard := range run.outs {
		// Room for two slabs: the scanner decodes ahead while the merge
		// works through what it was last handed.
		out := make(chan shardBatch, 2)
		run.outs[shard] = out
		go func() {
			defer close(out)
			scanShard(dir, shard, byShard[shard], q, out, run.statsCh, run.done)
		}()
	}
	return run
}

// stop cancels whatever the scanners have left to do, collects their
// accounting, and returns every slab still queued to the pool.
func (run *scanRun) stop() ScanStats {
	close(run.done)
	for i := 0; i < cap(run.statsCh); i++ { // one report per shard
		run.stats.Merge(<-run.statsCh)
	}
	for _, out := range run.outs {
		for b := range out { // closed once its scanner has exited
			if b.batch != nil {
				b.batch.Release()
			}
		}
	}
	metricScanSeconds.ObserveDuration(time.Since(run.begin)) //bsvet:allow determinism scan latency telemetry measures host time, not simulated time
	return run.stats
}

// planScan snapshots the manifest under the lock and prunes whole
// segments. The survivors come back in segmentBefore order: by shard,
// then partition, then seal order.
func (s *Store) planScan(q Query) (shards int, dir string, segs []SegmentEntry, stats ScanStats) {
	s.mu.Lock()
	shards = s.opts.Shards
	for _, e := range s.man.Segments {
		if e.Shard < 0 || e.Shard >= shards {
			continue // no scanner reads a shard the store does not have
		}
		if q.segPrunable(&e) {
			stats.SegmentsPruned++
			blocks := int(e.Blocks)
			stats.BlocksPruned += blocks
			metricSegmentsPruned.Inc()
			metricBlocksPruned.Add(uint64(blocks))
			continue
		}
		segs = append(segs, e)
	}
	dir = s.dir
	s.mu.Unlock()
	sort.Slice(segs, func(i, j int) bool { return segmentBefore(&segs[i], &segs[j]) })
	return shards, dir, segs, stats
}

// ScanBatches streams every sealed record matching q to emit as pooled
// columnar batches, unsorted, on the calling goroutine: it is
// ScanPartitions with one worker. Use it to feed order-insensitive
// stages; use ScanOrdered when the consumer needs global time order.
// Ownership of each batch passes to emit; an error from emit ends the
// scan and is returned.
func (s *Store) ScanBatches(q Query, emit func(*pipe.Batch) error) (ScanStats, error) {
	return s.ScanPartitions(q, 1, func(_ int, b *pipe.Batch) error { return emit(b) })
}

// ScanPartitions streams every sealed record matching q to emit as
// pooled columnar batches, unsorted, on at most workers goroutines: the
// caller's, as worker 0, and workers-1 it starts. Workers take whole
// time partitions off a shared counter in partition order and read each
// one from every shard, segment after segment, with no channel between
// the decode and emit: worker w calls emit(w, b) on its own goroutine,
// never concurrently with itself. A segment never spans its partition
// (a day by default), so a worker's batches hold whole days no other
// worker sees. Ownership of each batch passes to emit. The first
// error, from emit or from a segment, is latched: every worker stops at
// its next segment or batch, and the error is returned with the
// accounting of what was read.
func (s *Store) ScanPartitions(q Query, workers int, emit func(w int, b *pipe.Batch) error) (ScanStats, error) {
	begin := time.Now() //bsvet:allow determinism scan latency telemetry measures host time, not simulated time
	_, dir, segs, stats := s.planScan(q)
	// Partition-major; the stable sort keeps shard and seal order within.
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].PartitionSec < segs[j].PartitionSec })
	var parts [][]SegmentEntry
	for i, j := 0, 0; i < len(segs); i = j {
		for j = i + 1; j < len(segs) && segs[j].PartitionSec == segs[i].PartitionSec; j++ {
		}
		parts = append(parts, segs[i:j])
	}
	workers = max(1, min(workers, len(parts)))

	var (
		next atomic.Int64 // the next unclaimed partition
		done = make(chan struct{})
		mu   sync.Mutex // guards stats and err
		err  error
		wg   sync.WaitGroup
	)
	work := func(w int) {
		sc := newShardScanner(&q, false, done, func(b *pipe.Batch) error {
			select {
			case <-done: // a peer failed: hand nothing more out
				b.Release()
				return errScanCancelled
			default:
				return emit(w, b)
			}
		})
		werr := sc.runPartitions(dir, parts, &next)
		sc.release()
		mu.Lock()
		stats.Merge(sc.stats)
		if werr != nil && werr != errScanCancelled && err == nil {
			err = werr // the latch
			close(done)
		}
		mu.Unlock()
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	metricScanSeconds.ObserveDuration(time.Since(begin)) //bsvet:allow determinism scan latency telemetry measures host time, not simulated time
	return stats, err
}

// errScanCancelled ends a scanner whose consumer went away or whose
// peer failed.
var errScanCancelled = errors.New("flowstore: scan cancelled")

// errIndexBelowRows fails an ordered scan that sent rows on a sparse
// index's promise and then found the block holding earlier ones.
var errIndexBelowRows = errors.New("flowstore: block holds start times before its index minimum (corrupt sparse index?)")

// shardScanner streams matching records, one partition's segments of
// one shard at a time. Each block is parsed into a pooled columnBlock,
// the compiled predicate runs against only the columns it references,
// and survivors move column-wise into the pending slab: filtered-out
// rows are never materialized, a block with no survivors never decodes
// its other columns, one that survives whole is handed over unordered by
// swapping slice headers, and no flow.Record is built in either mode.
//
// Unordered (a ScanPartitions worker), the slab goes out once it passes
// pipe.DefaultBatchSize and when the worker runs out of partitions.
// Ordered (one shard's scanner under the merge), a partition's rows go
// out in stable (start second, nanosecond) order — ties in segment,
// block, row order — but only what must be held is: after each block
// the scanner sends every pending row that starts before the earliest
// second the partition's unread blocks can hold (their sparse indexes
// and the later segments' manifest ranges say), sorting only if a row
// arrived out of order. Time-sorted ingest streams block by block,
// holding a block plus the rows of its last second; overlapping blocks
// hold the overlap (up to twice it, see flushBelow), at worst the
// partition.
type shardScanner struct {
	q       *Query
	pred    colPredicate
	proj    ColumnSet
	ordered bool
	// send hands a slab on and takes ownership of it, also when it
	// fails; done closes when the scan is cancelled.
	send  func(*pipe.Batch) error
	done  <-chan struct{}
	stats ScanStats
	cb    *ColumnBlock
	slab  *pipe.Batch // pending survivors

	// Ordered only. unsorted: a pending row starts before its
	// predecessor. floor: rows below it are sent; a later one there means
	// an index lied. later[b]: the earliest second anything after block
	// b of the open segment may hold, in the rest of its partition.
	unsorted bool
	floor    int64
	later    []int64
	perm     []int32 // sort scratch
}

// newShardScanner returns a scanner for q holding one pooled block,
// recycled across its blocks and, through the shared pool, across scans
// and vantage stores; release returns it.
func newShardScanner(q *Query, ordered bool, done <-chan struct{}, send func(*pipe.Batch) error) *shardScanner {
	sc := &shardScanner{q: q, pred: compilePredicate(q), proj: q.Project, ordered: ordered, send: send, done: done}
	// Survivors decode the caller's projection (everything when unset)
	// and, ordered, the sort key; applyQuery decodes the predicate's.
	if sc.proj == 0 {
		sc.proj = AllColumns
	} else if ordered {
		sc.proj |= ColStart
	}
	sc.cb, sc.slab = getColumnBlock(), pipe.NewColsBatch()
	return sc
}

func (sc *shardScanner) release() {
	sc.slab.Release()
	sc.cb.Release()
}

// shardDir is where a shard's segment files live.
func shardDir(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%02d", shard))
}

// scanShard runs one shard's ordered scanner to the end, a failure, or
// a close of done. The caller owns out; stats are always sent.
func scanShard(dir string, shard int, segs []SegmentEntry, q Query, out chan<- shardBatch, statsCh chan<- ScanStats, done <-chan struct{}) {
	sc := newShardScanner(&q, true, done, func(b *pipe.Batch) error {
		select {
		case out <- shardBatch{batch: b}:
			return nil
		case <-done:
			b.Release()
			return errScanCancelled
		}
	})
	err := sc.run(shardDir(dir, shard), segs)
	sc.release()
	if err != nil && err != errScanCancelled {
		select {
		case out <- shardBatch{err: err}:
		case <-done:
		}
	}
	statsCh <- sc.stats
}

// flush sends the pending slab, if it holds anything, and starts a
// fresh one.
func (sc *shardScanner) flush() error {
	matched := uint64(sc.slab.Cols.Len())
	if matched == 0 {
		return nil
	}
	sc.stats.RecordsMatched += matched
	metricRecordsMatched.Add(matched)
	err := sc.send(sc.slab)
	sc.slab = pipe.NewColsBatch()
	return err
}

// run scans one shard's segments partition by partition, each sent in
// order once read (partitions are disjoint in start time: nothing later
// sorts before what is pending).
func (sc *shardScanner) run(dir string, segs []SegmentEntry) error {
	for i, j := 0, 0; i < len(segs); i = j {
		for j = i + 1; j < len(segs) && segs[j].PartitionSec == segs[i].PartitionSec; j++ {
		}
		if err := sc.scanPartition(dir, segs[i:j]); err != nil {
			return err
		}
		if err := sc.flushFirst(sc.slab.Cols.Len()); err != nil {
			return err
		}
	}
	return nil
}

// runPartitions claims partitions off next until none is left, scans
// each from every shard in turn, and sends what is pending at the end.
func (sc *shardScanner) runPartitions(dir string, parts [][]SegmentEntry, next *atomic.Int64) error {
	for {
		p := next.Add(1) - 1
		if p >= int64(len(parts)) {
			return sc.flush()
		}
		segs := parts[p]
		for i, j := 0, 0; i < len(segs); i = j {
			for j = i + 1; j < len(segs) && segs[j].Shard == segs[i].Shard; j++ {
			}
			if err := sc.scanPartition(shardDir(dir, segs[i].Shard), segs[i:j]); err != nil {
				return err
			}
		}
	}
}

// scanPartition decodes one shard's segments of one partition, in seal
// order, into the pending slab.
func (sc *shardScanner) scanPartition(shardDir string, segs []SegmentEntry) error {
	sc.floor = math.MinInt64
	for k := range segs {
		select {
		case <-sc.done:
			return errScanCancelled
		default:
		}
		after := int64(math.MaxInt64) // the partition's later segments start no earlier
		for _, e := range segs[k+1:] {
			after = min(after, e.MinStartSec)
		}
		if err := sc.scanSegment(filepath.Join(shardDir, segs[k].File), after); err != nil {
			return err
		}
	}
	return nil
}

// scanSegment decodes one segment's blocks into the pending slab; after
// is the earliest second a later segment of its partition may hold.
func (sc *shardScanner) scanSegment(path string, after int64) error {
	sc.stats.SegmentsScanned++
	r, err := openSegmentReaderPrefetch(path)
	if err != nil {
		return err
	}
	defer r.close()
	if sc.ordered {
		sc.later = r.laterMinStarts(sc.later[:0], after)
	}
	cb := sc.cb
	for blk := 0; ; blk++ {
		pruned, err := r.nextBlockColumnar(sc.q, cb)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if pruned {
			sc.stats.BlocksPruned++
			metricBlocksPruned.Inc()
			continue
		}
		sc.stats.BlocksScanned++
		sc.stats.RecordsScanned += uint64(cb.count)
		sc.stats.ColumnsTotal += nCols
		metricBlocksScanned.Inc()
		metricRecordsScanned.Add(uint64(cb.count))
		if err := cb.applyQuery(&sc.pred); err != nil {
			return err
		}
		if cb.selCount > 0 {
			if err := cb.decodeSet(sc.proj); err != nil {
				return err
			}
		}
		sc.stats.ColumnsDecoded += uint64(cb.decodedCount)
		if err := sc.take(blk); err != nil {
			return err
		}
	}
}

// take moves the decoded block's survivors into the pending slab and
// sends what the mode lets go.
func (sc *shardScanner) take(blk int) error {
	cb, from := sc.cb, sc.slab.Cols.Len()
	switch {
	case cb.selCount == 0:
	case cb.selCount == cb.count && !sc.ordered:
		// Every row survived: ship the decoded columns whole, behind the
		// partial slab — a swap of slice headers with the fresh slab
		// instead of a 17-column copy. An ordered scanner copies instead
		// and keeps its decode buffers: its fresh slabs come from a pool
		// that every GC empties, and a block handed an empty slab's
		// columns regrows them on its next load.
		if err := sc.flush(); err != nil {
			return err
		}
		from = 0
		cb.Cols, *sc.slab.Cols = *sc.slab.Cols, cb.Cols
	default:
		cb.appendSelected(sc.slab.Cols)
	}
	if sc.ordered {
		return sc.flushBelow(from, sc.later[blk])
	}
	if sc.slab.Cols.Len() >= pipe.DefaultBatchSize {
		return sc.flush()
	}
	return nil
}

// flushBelow sends every pending row that starts before second bound —
// nothing still unread can sort ahead of those — and keeps the rest
// pending; to stay linear when blocks overlap heavily it waits until at
// least half the pending rows can go. On the way it inspects the rows
// from index from on, the ones the last block added: one that starts
// before its predecessor marks the slab unsorted, and one below the
// floor fails the scan.
func (sc *shardScanner) flushBelow(from int, bound int64) error {
	sec, ns := sc.slab.Cols.StartSec, sc.slab.Cols.StartNs
	below := 0
	for i, s := range sec {
		if s < bound {
			below++
		}
		if i < from {
			continue
		}
		if s < sc.floor {
			return errIndexBelowRows
		}
		sc.unsorted = sc.unsorted || i > 0 && (s < sec[i-1] || s == sec[i-1] && ns[i] < ns[i-1])
	}
	if below == 0 || 2*below < len(sec) {
		return nil
	}
	sc.floor = bound
	return sc.flushFirst(below)
}

// flushFirst sends the first n pending rows — of the stable start
// order, if the slab is not in it yet — and keeps the rest pending.
func (sc *shardScanner) flushFirst(n int) error {
	if sc.unsorted {
		sc.perm = startOrder(sc.slab.Cols, sc.perm)
		sorted := pipe.NewColsBatch()
		sorted.Cols.AppendIndexed(sc.slab.Cols, sc.perm)
		sc.slab.Release()
		sc.slab, sc.unsorted = sorted, false
	}
	rest := pipe.NewColsBatch()
	if c := sc.slab.Cols; n < c.Len() {
		rest.Cols.AppendRange(c, n, c.Len())
		c.Resize(n)
	}
	if err := sc.flush(); err != nil {
		rest.Release()
		return err
	}
	sc.slab.Release() // flush's fresh slab
	sc.slab = rest
	return nil
}
