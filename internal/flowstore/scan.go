package flowstore

import (
	"container/heap"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"booterscope/internal/flow"
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
	// read from delivered columnar batches; ScanBatches then skips
	// decoding every other column (predicate columns are always
	// decoded). Projected-out columns in delivered batches hold
	// unspecified values, so a projecting caller must consume batches
	// columnar — materializing records from a projected batch yields
	// garbage in the omitted fields. The sorted Scan path ignores
	// Project and always produces full records. Zero means all columns.
	Project ColumnSet
}

// ColumnSet selects block columns for Query.Project, at record-field
// granularity. Groups bundle the physical columns a field read needs:
// addresses pull in the flags column (validity/Is4 bits), end times
// pull in start seconds (the end column is delta-encoded against it).
type ColumnSet uint32

const (
	// ColFlags is the per-record flag byte (address validity/family
	// and direction bits).
	ColFlags ColumnSet = 1 << colFlagsIdx
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
	ColEnd ColumnSet = 1<<colEndSecIdx | 1<<colEndNsIdx | 1<<colStartSecIdx
	// ColAS covers both AS-number columns.
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
// path shared by the per-shard aggregation inside Scan/ScanBatches and
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

// shardBatch is one batch of matching records from a shard scanner. The
// slab lives in a pooled pipe.Batch: scanners recycle slabs through the
// pool instead of allocating one per partition, so a steady-state scan
// stops feeding the garbage collector.
type shardBatch struct {
	batch *pipe.Batch
	err   error
}

// shardCursor pulls batches from one shard's scan goroutine. It
// implements RecordStream: within a shard, partitions are disjoint in
// start time and each partition's survivors are sorted stably, so the
// stream is nondecreasing in Start with ties left in ingest order.
type shardCursor struct {
	ch  <-chan shardBatch
	cur *pipe.Batch
	pos int
	err error
}

// Next advances to the next record, pulling batches as needed. A
// returned record pointer is valid only until the next call: exhausted
// slabs go back to the pool.
func (c *shardCursor) Next() (*flow.Record, bool) {
	for c.cur == nil || c.pos >= len(c.cur.Recs) {
		if c.cur != nil {
			c.cur.Release()
			c.cur = nil
		}
		b, ok := <-c.ch
		if !ok {
			return nil, false
		}
		if b.err != nil {
			c.err = b.err
			return nil, false
		}
		c.cur, c.pos = b.batch, 0
	}
	r := &c.cur.Recs[c.pos]
	c.pos++
	return r, true
}

// Err reports the error that ended the stream, if any.
func (c *shardCursor) Err() error { return c.err }

// drain releases the cursor's current slab and any batches still
// queued on its channel — the cancellation path's cleanup, keeping
// every pooled slab accounted for.
func (c *shardCursor) drain() {
	if c.cur != nil {
		c.cur.Release()
		c.cur = nil
	}
	for b := range c.ch {
		if b.batch != nil {
			b.batch.Release()
		}
	}
}

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

// merger is the k-way merge behind both MergeStreams and Cursor:
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

// MergeStreams funnels k time-ordered record streams into one
// deterministic stream: ascending Start, ties broken by stream index,
// then by each stream's own record order. fn receives the index of the
// stream each record came from; a non-nil error from fn aborts the
// merge and is returned. A stream error aborts the merge as soon as it
// is observed — the first failure surfaces, remaining streams are left
// for the caller to cancel/clean up (flowstore cursors do both in
// Close).
func MergeStreams(streams []RecordStream, fn func(i int, r *flow.Record) error) error {
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

// scanRun is one launched scan: a scanner goroutine per shard feeding
// outs, cancelled by closing done, each reporting its accounting on
// statsCh when it exits.
type scanRun struct {
	begin   time.Time
	stats   ScanStats // plan-time pruning; finish adds the scanners' share
	statsCh chan ScanStats
	done    chan struct{}
	// outs holds one channel per shard for a sorted scan (the merge
	// needs each shard's stream apart) and a single shared channel
	// otherwise. Each is closed once every scanner sending on it exits.
	outs []chan shardBatch
}

// launch snapshots the manifest and starts the shard scanners for q.
func (s *Store) launch(q Query, sorted bool) *scanRun {
	begin := time.Now() //bsvet:allow determinism scan latency telemetry measures host time, not simulated time
	shards, dir, byShard, stats := s.planScan(q)
	nOut := 1
	if sorted {
		nOut = shards
	}
	run := &scanRun{
		begin:   begin,
		stats:   stats,
		statsCh: make(chan ScanStats, shards),
		done:    make(chan struct{}),
		outs:    make([]chan shardBatch, nOut),
	}
	senders := make([]sync.WaitGroup, nOut)
	for o := range run.outs {
		// Room for two slabs per sender: a scanner decodes ahead while
		// the consumer works through what it was last handed.
		run.outs[o] = make(chan shardBatch, 2*shards/nOut)
	}
	for shard := 0; shard < shards; shard++ {
		o := shard % nOut
		senders[o].Add(1)
		go func(out chan<- shardBatch) {
			defer senders[o].Done()
			scanShard(dir, shard, byShard[shard], q, out, run.statsCh, run.done, sorted)
		}(run.outs[o])
	}
	for o, out := range run.outs {
		go func(out chan shardBatch) {
			senders[o].Wait()
			close(out)
		}(out)
	}
	return run
}

// finish collects every scanner's accounting. The caller must have
// closed done or be past draining outs, so the scanners do exit.
func (run *scanRun) finish() ScanStats {
	for i := 0; i < cap(run.statsCh); i++ { // one report per shard
		run.stats.Merge(<-run.statsCh)
	}
	metricScanSeconds.ObserveDuration(time.Since(run.begin)) //bsvet:allow determinism scan latency telemetry measures host time, not simulated time
	return run.stats
}

// Cursor is a pull-based ordered scan over one store: parallel shard
// scanners behind a k-way merge, exposed as a RecordStream so callers
// can interleave several stores' scans (the federation coordinator
// merges one Cursor per vantage archive). Records arrive in ascending
// start time, ties broken by shard index then ingest order. The pointer
// returned by Next is valid only until the following call. Close
// cancels any remaining work, reclaims every pooled slab, and returns
// the scan's accounting; it must always be called, even after
// exhaustion.
type Cursor struct {
	run     *scanRun
	cursors []*shardCursor // the merge's streams, kept typed for drain
	merge   merger
	closed  bool
}

// NewCursor starts an ordered scan of q and returns its cursor. The
// shard scanners run concurrently from this call on; Close stops them.
func (s *Store) NewCursor(q Query) *Cursor {
	// Partition-ordered segment lists give each shard stream global
	// time order: partitions are disjoint in start time, and records
	// within a partition are sorted after decoding.
	c := &Cursor{run: s.launch(q, true)}
	for _, out := range c.run.outs {
		sc := &shardCursor{ch: out}
		c.cursors = append(c.cursors, sc)
		c.merge.streams = append(c.merge.streams, sc)
	}
	return c
}

// Next returns the next record in merged order. It returns false on
// exhaustion or on the first shard error — check Err (or Close's
// returned error) to distinguish.
func (c *Cursor) Next() (*flow.Record, bool) {
	if c.closed {
		return nil, false
	}
	it, ok := c.merge.next()
	if !ok {
		return nil, false
	}
	return it.rec, true
}

// Err reports the first shard error the cursor observed (nil while
// records are still flowing or after clean exhaustion).
func (c *Cursor) Err() error { return c.merge.err }

// Close cancels the scan, reclaims every outstanding pooled slab, and
// returns the accounting plus the error that ended the merge, if one
// did. Idempotent.
func (c *Cursor) Close() (ScanStats, error) {
	if !c.closed {
		c.closed = true
		close(c.run.done)
		c.run.finish()
		for _, sc := range c.cursors {
			sc.drain()
		}
	}
	return c.run.stats, c.merge.err
}

// Scan streams every sealed record matching q to fn in ascending start
// time (ties broken by shard index, then ingest order — fully
// deterministic). Per-shard scanners decode and filter blocks in
// parallel; the sparse indexes prune non-matching segments and blocks
// without decoding them. A non-nil error from fn aborts the scan and is
// returned; a shard error cancels the remaining shards and surfaces.
// The record pointer is valid only for the duration of the call —
// slabs are pooled and recycled; copy the record to keep it. Only
// sealed segments are visible: writers call Seal (or Close) to
// publish.
func (s *Store) Scan(q Query, fn func(*flow.Record) error) (ScanStats, error) {
	c := s.NewCursor(q)
	var fnErr error
	for {
		r, ok := c.Next()
		if !ok {
			break
		}
		if err := fn(r); err != nil {
			// Cancel: stop the shard scanners instead of decoding the
			// rest of the archive into a discarded drain.
			fnErr = err
			break
		}
	}
	stats, err := c.Close()
	if fnErr != nil {
		return stats, fnErr
	}
	return stats, err
}

// planScan snapshots the manifest under the lock, prunes whole
// segments, and groups the survivors by shard in partition order.
func (s *Store) planScan(q Query) (shards int, dir string, byShard map[int][]SegmentEntry, stats ScanStats) {
	s.mu.Lock()
	shards = s.opts.Shards
	byShard = make(map[int][]SegmentEntry, shards)
	for _, e := range s.man.Segments {
		if q.segPrunable(&e) {
			stats.SegmentsPruned++
			blocks := int(e.Blocks)
			stats.BlocksPruned += blocks
			metricSegmentsPruned.Inc()
			metricBlocksPruned.Add(uint64(blocks))
			continue
		}
		byShard[e.Shard] = append(byShard[e.Shard], e)
	}
	dir = s.dir
	s.mu.Unlock()
	for shard := range byShard {
		segs := byShard[shard]
		sort.Slice(segs, func(i, j int) bool {
			if segs[i].PartitionSec != segs[j].PartitionSec {
				return segs[i].PartitionSec < segs[j].PartitionSec
			}
			return segs[i].File < segs[j].File
		})
	}
	return shards, dir, byShard, stats
}

// ScanBatches streams every sealed record matching q to emit as pooled
// columnar batches, without the k-way time-ordered funnel Scan pays
// for: shard scanners feed a shared channel and batches arrive in
// whatever order decoding finishes, unsorted. Use it to drive a pipe
// fan-out (order-insensitive or watermark-driven stages); use Scan when
// the consumer needs global time order. Ownership of each batch passes
// to emit; an error from emit cancels the scan and is returned.
func (s *Store) ScanBatches(q Query, emit func(*pipe.Batch) error) (ScanStats, error) {
	run := s.launch(q, false)
	var firstErr error
	for b := range run.outs[0] {
		switch {
		case firstErr != nil:
			// Draining: done is closed, scanners exit promptly. Queued
			// slabs still go back to the pool.
			if b.batch != nil {
				b.batch.Release()
			}
		case b.err != nil:
			firstErr = b.err
			close(run.done)
		default:
			if firstErr = emit(b.batch); firstErr != nil {
				close(run.done)
			}
		}
	}
	return run.finish(), firstErr
}

// scanShard streams one shard's matching records, partition by
// partition. Each block is parsed into a pooled ColumnBlock, the
// compiled query predicate runs against only the columns it references,
// and survivors are copied out column-wise — filtered-out rows are
// never materialized, and blocks with no survivors never decode their
// remaining columns. Unsorted scans emit columnar batches
// (pipe.Batch.Cols); with sorted set (the ordered Scan path) survivors
// are materialized into records for the k-way merge, which needs whole
// flow.Records anyway, and each partition's are sorted by start time.
// A close of done cancels the scan: pending sends abort and no further
// segments are decoded. The caller owns out; stats are always sent.
func scanShard(dir string, shard int, segs []SegmentEntry, q Query, out chan<- shardBatch, statsCh chan<- ScanStats, done <-chan struct{}, sorted bool) {
	var stats ScanStats
	defer func() {
		statsCh <- stats
	}()
	send := func(b shardBatch) bool {
		select {
		case out <- b:
			return true
		case <-done:
			return false
		}
	}
	pred := compilePredicate(&q)
	// The survivor decode set: the caller's projection (everything when
	// unset), ignored on the sorted path, which materializes full
	// records. Predicate columns decode separately in applyQuery.
	proj := q.Project
	if proj == 0 || sorted {
		proj = AllColumns
	}
	// One pooled block per scanner, recycled across every block,
	// segment, and partition of the shard — and, through the shared
	// pool, across scans and vantage stores.
	cb := getColumnBlock()
	defer cb.Release()
	shardDir := filepath.Join(dir, fmt.Sprintf("shard-%02d", shard))
	for i := 0; i < len(segs); {
		select {
		case <-done:
			return
		default:
		}
		j := i + 1
		for j < len(segs) && segs[j].PartitionSec == segs[i].PartitionSec {
			j++
		}
		var slab *pipe.Batch
		if sorted {
			slab = pipe.NewBatch()
		} else {
			slab = pipe.NewColsBatch()
		}
		// part accumulates sorted-mode survivors; it aliases the
		// sorted slab's Recs and is meaningless in unsorted mode
		// (where slabs are columnar and re-made at each flush).
		part := slab.Recs
		fail := func(r *segmentReader, err error) {
			if r != nil {
				r.close()
			}
			if sorted {
				slab.Recs = part
			}
			slab.Release()
			send(shardBatch{err: err})
		}
		// flushSlab emits the pending columnar slab and starts a fresh
		// one; false means the scan was cancelled.
		flushSlab := func() bool {
			matched := slab.Cols.Len()
			if matched == 0 {
				return true
			}
			stats.RecordsMatched += uint64(matched)
			metricRecordsMatched.Add(uint64(matched))
			if !send(shardBatch{batch: slab}) {
				slab.Release()
				return false
			}
			slab = pipe.NewColsBatch()
			return true
		}
		for _, e := range segs[i:j] {
			stats.SegmentsScanned++
			r, err := openSegmentReaderPrefetch(filepath.Join(shardDir, e.File))
			if err != nil {
				fail(nil, err)
				return
			}
			for {
				pruned, err := r.nextBlockColumnar(&q, cb)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					fail(r, err)
					return
				}
				if pruned {
					stats.BlocksPruned++
					metricBlocksPruned.Inc()
					continue
				}
				stats.BlocksScanned++
				stats.RecordsScanned += uint64(cb.count)
				stats.ColumnsTotal += nCols
				metricBlocksScanned.Inc()
				metricRecordsScanned.Add(uint64(cb.count))
				if err := cb.applyQuery(&pred); err != nil {
					fail(r, err)
					return
				}
				if cb.selCount > 0 {
					if err := cb.decodeSet(proj); err != nil {
						fail(r, err)
						return
					}
					switch {
					case sorted:
						part = cb.materializeSelected(part)
					case cb.selCount == cb.count:
						// Every row survived: ship the decoded columns
						// whole (flushing any partial slab first) and
						// adopt the fresh slab's buffers — a swap of
						// slice headers instead of a 17-column copy.
						if !flushSlab() {
							r.close()
							return
						}
						cb.Cols, *slab.Cols = *slab.Cols, cb.Cols
					default:
						cb.appendSelected(slab.Cols)
					}
				}
				stats.ColumnsDecoded += uint64(cb.decodedCount)
				if !sorted && slab.Cols.Len() >= pipe.DefaultBatchSize {
					if !flushSlab() {
						r.close()
						return
					}
				}
			}
			r.close()
		}
		if sorted {
			slab.Recs = part
		}
		if slab.Len() > 0 {
			if sorted {
				// Stable: equal timestamps keep ingest order, the
				// tertiary key of the deterministic merge order.
				sort.SliceStable(part, func(a, b int) bool { return part[a].Start.Before(part[b].Start) })
			}
			stats.RecordsMatched += uint64(slab.Len())
			metricRecordsMatched.Add(uint64(slab.Len()))
			if !send(shardBatch{batch: slab}) {
				slab.Release()
				return
			}
		} else {
			slab.Release()
		}
		i = j
	}
}
