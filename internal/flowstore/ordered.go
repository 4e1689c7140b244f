package flowstore

import (
	"booterscope/internal/flow"
	"booterscope/internal/pipe"
)

// shardStream is one input of the ordered merge: the slabs a shard's
// ordered scanner sends, which read end to end are nondecreasing in
// (StartSec, StartNs) with ties left in ingest order — partitions are
// disjoint in start time and the scanner orders each one.
type shardStream struct {
	ch  <-chan shardBatch
	cur *pipe.Batch // the slab being merged, released when exhausted
	pos int         // first unmerged row of cur
	// sec and ns are row pos's (StartSec, StartNs), the stream's head
	// key, kept here so the merge's compares read no slab.
	sec int64
	ns  uint32
	err error
}

// advance makes cur the stream's next slab; false means the stream ran
// dry (err says whether cleanly).
func (s *shardStream) advance() bool {
	s.release()
	b, ok := <-s.ch
	s.cur, s.pos, s.err = b.batch, 0, b.err
	if !ok || b.err != nil {
		return false
	}
	s.sec, s.ns = s.cur.Cols.StartSec[0], s.cur.Cols.StartNs[0]
	return true
}

func (s *shardStream) release() {
	if s.cur != nil {
		s.cur.Release()
		s.cur = nil
	}
}

// merge is the one k-way ordered merge: a store's shard streams — or,
// for MergeScan, every shard stream of several stores, store by store —
// into one stream in ascending (StartSec, StartNs). Equal keys resolve
// to the earlier stream and, within a stream, to its own order. It works
// in runs: one step yields the longest stretch of the winning stream's
// slab that sorts before every other stream's next row, so consumers
// copy ranges, not rows. A stream failure ends the merge as soon as it
// is observed, and because a stream's error is read at the moment it
// runs dry, a clean end means none failed.
type merge struct {
	streams []*shardStream
	// order lists the streams that still have rows, sorted by (next
	// row's key, ordinal): order[0] wins the next run, order[1] bounds it.
	order []int
	last  *shardStream // the stream the previous run came from
	err   error
}

// less reports whether stream a's next row sorts before stream b's.
func (m *merge) less(a, b int) bool {
	sa, sb := m.streams[a], m.streams[b]
	if sa.sec != sb.sec {
		return sa.sec < sb.sec
	}
	if sa.ns != sb.ns {
		return sa.ns < sb.ns
	}
	return a < b
}

// settle moves order[0], whose next row just changed, to its place.
func (m *merge) settle() {
	o := m.order
	for k := 1; k < len(o) && m.less(o[k], o[k-1]); k++ {
		o[k-1], o[k] = o[k], o[k-1]
	}
}

// prime loads every stream's first slab and sorts the live ones; it
// runs once, before the first next.
func (m *merge) prime() {
	m.order = make([]int, 0, len(m.streams))
	for i, s := range m.streams {
		if s.advance() {
			m.order = append(m.order, 0)
			copy(m.order[1:], m.order)
			m.order[0] = i
			m.settle()
		} else if m.err = s.err; m.err != nil {
			return
		}
	}
}

// next returns the next run — rows [lo, hi) of c, all from stream i —
// valid until the following call; ok is false at the end or on a stream
// failure.
func (m *merge) next() (i int, c *flow.Columns, lo, hi int, ok bool) {
	if w := m.last; w != nil && m.err == nil {
		// The previous run consumed rows of w, which is order[0].
		if w.pos < w.cur.Cols.Len() || w.advance() {
			m.settle()
		} else {
			m.order, m.err, m.last = m.order[1:], w.err, nil
		}
	}
	if m.err != nil || len(m.order) == 0 {
		return 0, nil, 0, 0, false
	}
	i = m.order[0]
	w := m.streams[i]
	c, lo = w.cur.Cols, w.pos
	hi = c.Len()
	if len(m.order) > 1 {
		// The run ends at the first row the runner-up's next row sorts
		// before; on an equal key the earlier stream goes first.
		r := m.streams[m.order[1]]
		rs, rn, yield := r.sec, r.ns, i > m.order[1]
		sec, ns := c.StartSec[:hi], c.StartNs[:hi]
		for hi = lo + 1; hi < len(sec); hi++ {
			if s := sec[hi]; s > rs || s == rs && (ns[hi] > rn || yield && ns[hi] == rn) {
				w.sec, w.ns = s, ns[hi]
				break
			}
		}
	}
	w.pos, m.last = hi, w
	return i, c, lo, hi, true
}

// MergeScan runs an ordered scan of q over every store at once and
// funnels them into one deterministic stream: ascending start time,
// ties broken by store index, then shard index, then ingest order. fn
// receives the rows run by run — rows [lo, hi) of cols, all from store
// i, valid for the duration of the call; columns Query.Project left out
// hold unspecified values. Per-shard scanners decode and filter blocks
// in parallel; the sparse indexes prune segments and blocks undecoded.
// An error from fn, or the first shard failure, cancels every scanner,
// reclaims every pooled slab, and is returned with each store's
// accounting so far. Only sealed segments are visible (Seal or Close).
func MergeScan(stores []*Store, q Query, fn func(i int, cols *flow.Columns, lo, hi int) error) ([]ScanStats, error) {
	var m merge
	var owner []int // stream ordinal -> store index
	runs := make([]*scanRun, len(stores))
	for i, s := range stores {
		runs[i] = s.launch(q)
		for _, out := range runs[i].outs {
			m.streams = append(m.streams, &shardStream{ch: out})
			owner = append(owner, i)
		}
	}
	m.prime()
	var err error
	for err == nil {
		i, cols, lo, hi, ok := m.next()
		if !ok {
			err = m.err
			break
		}
		err = fn(owner[i], cols, lo, hi)
	}
	// Stop: on an early exit the scanners quit instead of decoding the
	// rest of the archive into a discarded drain.
	stats := make([]ScanStats, len(stores))
	for _, s := range m.streams {
		s.release()
	}
	for i, run := range runs {
		stats[i] = run.stop()
	}
	return stats, err
}

// ScanOrdered streams every sealed record matching q to emit as pooled
// columnar batches in ascending start time (ties broken by shard index,
// then ingest order — fully deterministic), without ever building a
// record. Ownership of each batch passes to emit; an error from emit
// aborts the scan and is returned, as is a shard error.
func (s *Store) ScanOrdered(q Query, emit func(*pipe.Batch) error) (ScanStats, error) {
	out := pipe.NewColsBatch()
	stats, err := MergeScan([]*Store{s}, q, func(_ int, cols *flow.Columns, lo, hi int) error {
		if hi-lo == 1 {
			out.Cols.AppendFrom(cols, lo)
		} else {
			out.Cols.AppendRange(cols, lo, hi)
		}
		if out.Cols.Len() < pipe.DefaultBatchSize {
			return nil
		}
		full := out
		out = pipe.NewColsBatch()
		return emit(full)
	})
	if err == nil && out.Cols.Len() > 0 {
		return stats[0], emit(out)
	}
	out.Release()
	return stats[0], err
}

// Scan is ScanOrdered for callers that want whole records: every
// column is decoded and each row is materialized for fn, whose record
// pointer is valid only for the duration of the call — copy the record
// to keep it.
func (s *Store) Scan(q Query, fn func(*flow.Record) error) (ScanStats, error) {
	q.Project = AllColumns
	var r flow.Record // one for the whole scan: fn may let its pointer escape
	stats, err := MergeScan([]*Store{s}, q, func(_ int, cols *flow.Columns, lo, hi int) error {
		for i := lo; i < hi; i++ {
			r = cols.Record(i)
			if err := fn(&r); err != nil {
				return err
			}
		}
		return nil
	})
	return stats[0], err
}
