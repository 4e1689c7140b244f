package pipe

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"

	"booterscope/internal/flow"
)

var t0 = time.Date(2018, 12, 1, 0, 0, 0, 0, time.UTC)

func testRec(i int, start time.Time) flow.Record {
	return flow.Record{
		Key: flow.Key{
			Src:      netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
			Dst:      netip.AddrFrom4([4]byte{192, 168, byte(i % 7), byte(i % 13)}),
			SrcPort:  123,
			DstPort:  uint16(1024 + i%100),
			Protocol: 17,
		},
		Packets:      uint64(1 + i%10),
		Bytes:        uint64(100 * (1 + i%10)),
		Start:        start,
		End:          start.Add(time.Second),
		SamplingRate: 1,
	}
}

// Source streams batches to emit until the stream is exhausted or emit
// returns an error, which the source must propagate immediately —
// early exit and cancellation flow through this return value.
// Ownership of each emitted batch passes to emit's implementation.
type Source func(emit func(*Batch) error) error

// Run drives src through st on the calling goroutine and closes the
// stage. The first error — source, Process, or Close — is returned;
// Close always runs so stages can release resources.
func Run(src Source, st Stage) error {
	err := src(func(b *Batch) error {
		defer b.Release()
		return st.Process(b)
	})
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return err
}

// sliceSource emits recs in batches of batchLen.
func sliceSource(recs []flow.Record, batchLen int) Source {
	return func(emit func(*Batch) error) error {
		for off := 0; off < len(recs); off += batchLen {
			end := off + batchLen
			if end > len(recs) {
				end = len(recs)
			}
			b := newBatch()
			b.Recs = append(b.Recs, recs[off:end]...)
			if err := emit(b); err != nil {
				return err
			}
		}
		return nil
	}
}

// collectStage records every (seq, dst, mark) it sees, optionally
// failing after failAfter records.
type collectStage struct {
	mu        sync.Mutex
	seqs      []uint64
	dsts      []netip.Addr
	marks     []int64
	closed    int
	failAfter int
	seen      int
}

func (c *collectStage) Process(b *Batch) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	recs := b.records() // materializes columnar batches
	for i := range recs {
		if c.failAfter > 0 && c.seen >= c.failAfter {
			return errors.New("stage failed")
		}
		c.seen++
		c.dsts = append(c.dsts, recs[i].Dst)
		if i < len(b.Seqs) {
			c.seqs = append(c.seqs, b.Seqs[i])
		}
		if i < len(b.Marks) {
			c.marks = append(c.marks, b.Marks[i])
		}
	}
	return nil
}

func (c *collectStage) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed++
	return nil
}

func TestRunDrivesStageAndCloses(t *testing.T) {
	recs := make([]flow.Record, 500)
	for i := range recs {
		recs[i] = testRec(i, t0.Add(time.Duration(i)*time.Second))
	}
	st := &collectStage{}
	if err := Run(sliceSource(recs, 64), st); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.closed != 1 {
		t.Fatalf("Close called %d times, want 1", st.closed)
	}
	if len(st.dsts) != len(recs) {
		t.Fatalf("stage saw %d records, want %d", len(st.dsts), len(recs))
	}
}

// runMarked drives src through a fan-out with an always-true mark
// filter, exercising the stamped (watermark-driven) routing path that
// the sharded monitor uses.
func runMarked(src Source, shards ...Stage) error {
	f := NewFanOut(KeyDst, shards...)
	f.SetMarkFilter(func(*flow.Record) bool { return true })
	return Run(src, f)
}

// runLean drives src through a fan-out with no mark filter and the
// columnar key beside the row key, so columnar batches route without
// materializing records.
func runLean(src Source, shards ...Stage) error {
	f := NewFanOut(KeyDst, shards...)
	f.SetColKey(KeyDstCols)
	return Run(src, f)
}

func TestFanOutRoutesAllRecordsByKey(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			recs := make([]flow.Record, 10_000)
			for i := range recs {
				recs[i] = testRec(i, t0.Add(time.Duration(i%300)*time.Second))
			}
			sts := make([]*collectStage, shards)
			stages := make([]Stage, shards)
			for i := range sts {
				sts[i] = &collectStage{}
				stages[i] = sts[i]
			}
			if err := runMarked(sliceSource(recs, 512), stages...); err != nil {
				t.Fatalf("runMarked: %v", err)
			}
			total := 0
			seen := map[uint64]bool{}
			for s, st := range sts {
				if st.closed != 1 {
					t.Fatalf("shard %d: Close called %d times", s, st.closed)
				}
				total += len(st.dsts)
				for i, d := range st.dsts {
					if want := int(KeyDst(&flow.Record{Key: flow.Key{Dst: d}}) % uint64(shards)); want != s {
						t.Fatalf("record for %s landed on shard %d, want %d", d, s, want)
					}
					if seen[st.seqs[i]] {
						t.Fatalf("sequence %d delivered twice", st.seqs[i])
					}
					seen[st.seqs[i]] = true
				}
				// Within one shard, sequence numbers preserve stream order.
				for i := 1; i < len(st.seqs); i++ {
					if st.seqs[i] <= st.seqs[i-1] {
						t.Fatalf("shard %d: seqs out of order at %d: %d after %d", s, i, st.seqs[i], st.seqs[i-1])
					}
				}
			}
			if total != len(recs) {
				t.Fatalf("shards saw %d records total, want %d", total, len(recs))
			}
		})
	}
}

func TestFanOutWatermarkIsGlobalPrefixMax(t *testing.T) {
	// Timestamps jump around; the stamped mark must be the running max
	// across the whole stream, not per shard.
	rng := rand.New(rand.NewSource(7))
	recs := make([]flow.Record, 5000)
	for i := range recs {
		recs[i] = testRec(i, t0.Add(time.Duration(rng.Intn(100_000))*time.Second))
	}
	wantMarks := make(map[uint64]int64, len(recs))
	max := int64(-1 << 62)
	for i := range recs {
		if ts := recs[i].Start.Unix(); ts > max {
			max = ts
		}
		wantMarks[uint64(i)] = max
	}
	sts := []*collectStage{{}, {}, {}, {}}
	stages := []Stage{sts[0], sts[1], sts[2], sts[3]}
	if err := runMarked(sliceSource(recs, 256), stages...); err != nil {
		t.Fatalf("runMarked: %v", err)
	}
	for s, st := range sts {
		for i := range st.seqs {
			if st.marks[i] != wantMarks[st.seqs[i]] {
				t.Fatalf("shard %d: record seq %d stamped mark %d, want %d",
					s, st.seqs[i], st.marks[i], wantMarks[st.seqs[i]])
			}
		}
	}
}

// abortSource verifies satellite 1's contract from the source side: a
// source must stop emitting the moment emit returns an error.
func TestFanOutPropagatesStageErrorAndCancelsSource(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			emitted := 0
			src := Source(func(emit func(*Batch) error) error {
				for i := 0; ; i++ {
					b := newBatch()
					for j := 0; j < DefaultBatchSize; j++ {
						r := testRec(i*DefaultBatchSize+j, t0)
						b.Recs = append(b.Recs, r)
					}
					emitted++
					if err := emit(b); err != nil {
						return err // cancellation propagates out
					}
					if emitted > 10_000 {
						return errors.New("source never cancelled")
					}
				}
			})
			sts := make([]Stage, shards)
			for i := range sts {
				sts[i] = &collectStage{failAfter: 100}
			}
			err := runLean(src, sts...)
			if err == nil || err.Error() != "stage failed" {
				t.Fatalf("runLean error = %v, want stage failed", err)
			}
			if emitted > 1000 {
				t.Fatalf("source emitted %d batches after stage failure — cancellation not propagated", emitted)
			}
		})
	}
}

type advanceStage struct {
	collectStage
	final int64
}

func (a *advanceStage) AdvanceTo(unixSec int64) { a.final = unixSec }

func TestFanOutAdvancesShardsToFinalWatermark(t *testing.T) {
	recs := make([]flow.Record, 1000)
	for i := range recs {
		recs[i] = testRec(i, t0.Add(time.Duration(i)*time.Minute))
	}
	want := recs[len(recs)-1].Start.Unix()
	sts := []*advanceStage{{}, {}, {}}
	stages := []Stage{sts[0], sts[1], sts[2]}
	if err := runMarked(sliceSource(recs, 128), stages...); err != nil {
		t.Fatalf("runMarked: %v", err)
	}
	for s, st := range sts {
		if st.final != want {
			t.Fatalf("shard %d advanced to %d, want %d", s, st.final, want)
		}
	}
}

// Without a mark filter the fan-out routes lean batches: all records
// still arrive on the right shard, but no sidecars are stamped.
func TestFanOutLeanWithoutMarkFilter(t *testing.T) {
	recs := make([]flow.Record, 3000)
	for i := range recs {
		recs[i] = testRec(i, t0.Add(time.Duration(i)*time.Second))
	}
	sts := []*collectStage{{}, {}, {}}
	stages := []Stage{sts[0], sts[1], sts[2]}
	if err := runLean(sliceSource(recs, 256), stages...); err != nil {
		t.Fatalf("runLean: %v", err)
	}
	total := 0
	for s, st := range sts {
		total += len(st.dsts)
		if len(st.seqs) != 0 || len(st.marks) != 0 {
			t.Fatalf("shard %d: lean routing stamped %d seqs, %d marks", s, len(st.seqs), len(st.marks))
		}
	}
	if total != len(recs) {
		t.Fatalf("shards saw %d records total, want %d", total, len(recs))
	}
}

func TestBatchPoolReuse(t *testing.T) {
	b := newBatch()
	b.Recs = append(b.Recs, testRec(1, t0))
	b.Marks = append(b.Marks, 42)
	b.Seqs = append(b.Seqs, 7)
	b.Release()
	nb := newBatch()
	if nb.Len() != 0 || len(nb.Marks) != 0 || len(nb.Seqs) != 0 {
		t.Fatalf("pooled batch not reset: %d recs, %d marks, %d seqs", nb.Len(), len(nb.Marks), len(nb.Seqs))
	}
	nb.Release()
}

func TestParallelismNormalization(t *testing.T) {
	if got := Parallelism(4); got != 4 {
		t.Fatalf("Parallelism(4) = %d", got)
	}
	if got := Parallelism(0); got < 1 {
		t.Fatalf("Parallelism(0) = %d, want >= 1", got)
	}
	if got := Parallelism(-3); got < 1 {
		t.Fatalf("Parallelism(-3) = %d, want >= 1", got)
	}
}
