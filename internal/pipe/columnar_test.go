package pipe

import (
	"fmt"
	"testing"
	"time"

	"booterscope/internal/flow"
)

// colsSource emits recs as columnar batches of batchLen.
func colsSource(recs []flow.Record, batchLen int) Source {
	return func(emit func(*Batch) error) error {
		for off := 0; off < len(recs); off += batchLen {
			end := off + batchLen
			if end > len(recs) {
				end = len(recs)
			}
			b := NewColsBatch()
			for i := off; i < end; i++ {
				b.Cols.AppendRecord(&recs[i])
			}
			if err := emit(b); err != nil {
				return err
			}
		}
		return nil
	}
}

func batchKey(r *flow.Record) string {
	return fmt.Sprintf("%v|%d|%d|%d|%d", r.Key, r.Packets, r.Bytes,
		r.Start.UnixNano(), r.End.UnixNano())
}

// TestColsBatchLazyMaterialization pins the Batch shape contract: a
// columnar batch reports its columnar length, Records materializes
// once (and caches), and Release detaches the columns so pooled
// batches come back row-shaped.
func TestColsBatchLazyMaterialization(t *testing.T) {
	recs := make([]flow.Record, 100)
	for i := range recs {
		recs[i] = testRec(i, t0.Add(time.Duration(i)*time.Second))
	}
	b := NewColsBatch()
	for i := range recs {
		b.Cols.AppendRecord(&recs[i])
	}
	if b.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(recs))
	}
	if len(b.Recs) != 0 {
		t.Fatalf("columnar batch pre-materialized %d records", len(b.Recs))
	}
	got := b.records()
	if len(got) != len(recs) {
		t.Fatalf("Records materialized %d, want %d", len(got), len(recs))
	}
	for i := range recs {
		if batchKey(&got[i]) != batchKey(&recs[i]) {
			t.Fatalf("record %d diverges after materialization", i)
		}
	}
	// Second call must return the cache, not re-materialize.
	if &got[0] != &b.records()[0] {
		t.Fatal("Records re-materialized instead of returning the cache")
	}
	b.Release()
	nb := newBatch()
	defer nb.Release()
	if nb.Cols != nil && nb.Cols.Len() != 0 {
		t.Fatal("pooled batch came back with live columns")
	}
}

// TestFanOutColumnarMatchesRowRouting is the pipe-level differential:
// the same records as row batches and as columnar batches must route
// to identical shards with identical watermark stamps and global
// sequence order.
func TestFanOutColumnarMatchesRowRouting(t *testing.T) {
	recs := make([]flow.Record, 3000)
	for i := range recs {
		recs[i] = testRec(i, t0.Add(time.Duration(i%97)*time.Second))
	}
	run := func(src Source) []*collectStage {
		shards := []*collectStage{{}, {}, {}}
		stages := make([]Stage, len(shards))
		for i, s := range shards {
			stages[i] = s
		}
		f := NewFanOut(KeyDst, stages...)
		f.SetMarkFilter(func(*flow.Record) bool { return true })
		f.SetColKey(KeyDstCols)
		f.SetColMarkFilter(func(*flow.Columns, int) bool { return true })
		if err := Run(src, f); err != nil {
			t.Fatalf("run: %v", err)
		}
		return shards
	}
	row := run(sliceSource(recs, 256))
	col := run(colsSource(recs, 256))
	for si := range row {
		r, c := row[si], col[si]
		if len(r.dsts) != len(c.dsts) {
			t.Fatalf("shard %d: row path saw %d records, columnar %d", si, len(r.dsts), len(c.dsts))
		}
		for i := range r.dsts {
			if r.dsts[i] != c.dsts[i] {
				t.Fatalf("shard %d record %d: dst %v vs %v", si, i, r.dsts[i], c.dsts[i])
			}
			if r.marks[i] != c.marks[i] {
				t.Fatalf("shard %d record %d: mark %d vs %d", si, i, r.marks[i], c.marks[i])
			}
			if r.seqs[i] != c.seqs[i] {
				t.Fatalf("shard %d record %d: seq %d vs %d", si, i, r.seqs[i], c.seqs[i])
			}
		}
	}
}

// TestFanOutColumnarFallback: a columnar batch fed to a fan-out with
// no columnar key must still deliver every record (materialized via
// the row path) — unported callers lose speed, never records.
func TestFanOutColumnarFallback(t *testing.T) {
	recs := make([]flow.Record, 800)
	for i := range recs {
		recs[i] = testRec(i, t0.Add(time.Duration(i)*time.Second))
	}
	shards := []*collectStage{{}, {}}
	f := NewFanOut(KeyDst, shards[0], shards[1])
	// Row key only: columnar batches must fall back to materialization.
	if err := Run(colsSource(recs, 128), f); err != nil {
		t.Fatalf("run: %v", err)
	}
	total := len(shards[0].dsts) + len(shards[1].dsts)
	if total != len(recs) {
		t.Fatalf("fallback delivered %d records, want %d", total, len(recs))
	}
}

// collectColsStage counts records without materializing, to prove the
// columnar path reaches stages columnar.
type collectColsStage struct {
	colRecords int
	rowRecords int
}

func (c *collectColsStage) Process(b *Batch) error {
	if b.Cols != nil {
		c.colRecords += b.Cols.Len()
		return nil
	}
	c.rowRecords += len(b.Recs)
	return nil
}

func (c *collectColsStage) Close() error { return nil }

// TestFanOutColumnarStaysColumnar: with columnar routing configured and
// a columnar source, shard stages must receive columnar batches — the
// fan-out must not silently materialize.
func TestFanOutColumnarStaysColumnar(t *testing.T) {
	recs := make([]flow.Record, 1200)
	for i := range recs {
		recs[i] = testRec(i, t0.Add(time.Duration(i)*time.Second))
	}
	shards := []*collectColsStage{{}, {}}
	f := NewFanOut(KeyDst, shards[0], shards[1])
	f.SetColKey(KeyDstCols)
	if err := Run(colsSource(recs, 256), f); err != nil {
		t.Fatalf("run: %v", err)
	}
	var colTotal, rowTotal int
	for _, s := range shards {
		colTotal += s.colRecords
		rowTotal += s.rowRecords
	}
	if rowTotal != 0 || colTotal != len(recs) {
		t.Fatalf("columnar routing materialized: %d columnar, %d row, want %d columnar only",
			colTotal, rowTotal, len(recs))
	}
}

// TestFanOutMixedShapes: alternating row and columnar batches through
// one fan-out must deliver every record exactly once — the pending
// slab's shape is fixed by its first append and cross-shape appends
// convert per record.
func TestFanOutMixedShapes(t *testing.T) {
	recs := make([]flow.Record, 2000)
	for i := range recs {
		recs[i] = testRec(i, t0.Add(time.Duration(i)*time.Second))
	}
	mixed := func(emit func(*Batch) error) error {
		for off := 0; off < len(recs); off += 100 {
			end := off + 100
			if end > len(recs) {
				end = len(recs)
			}
			var b *Batch
			if (off/100)%2 == 0 {
				b = NewColsBatch()
				for i := off; i < end; i++ {
					b.Cols.AppendRecord(&recs[i])
				}
			} else {
				b = newBatch()
				b.Recs = append(b.Recs, recs[off:end]...)
			}
			if err := emit(b); err != nil {
				return err
			}
		}
		return nil
	}
	shards := []*collectStage{{}, {}, {}}
	stages := make([]Stage, len(shards))
	for i, s := range shards {
		stages[i] = s
	}
	if err := runLean(mixed, stages...); err != nil {
		t.Fatalf("run: %v", err)
	}
	total := 0
	for _, s := range shards {
		total += len(s.dsts)
	}
	if total != len(recs) {
		t.Fatalf("mixed-shape run delivered %d records, want %d", total, len(recs))
	}
}
