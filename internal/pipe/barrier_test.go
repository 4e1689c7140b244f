package pipe

import (
	"errors"
	"testing"
	"time"

	"booterscope/internal/flow"
)

// slowCountStage counts records with an artificial per-batch delay so
// the barrier has real in-flight work to wait out.
type slowCountStage struct {
	delay time.Duration
	count int
}

func (s *slowCountStage) Process(b *Batch) error {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	s.count += len(b.Recs)
	return nil
}

func (s *slowCountStage) Close() error { return nil }

// TestBarrierQuiescesAllShards pins the stop-the-world contract: when
// the barrier callback runs, every record routed so far has been fully
// processed by its shard and no worker is executing, so the callback
// reads shard state without synchronization (the race detector guards
// the claim). The barrier must also be reusable and the pipeline must
// keep working after each one.
func TestBarrierQuiescesAllShards(t *testing.T) {
	t0 := time.Date(2018, 12, 1, 0, 0, 0, 0, time.UTC)
	shards := []*slowCountStage{
		{delay: time.Millisecond}, {delay: time.Millisecond},
		{delay: time.Millisecond}, {delay: time.Millisecond},
	}
	stages := make([]Stage, len(shards))
	for i, s := range shards {
		stages[i] = s
	}
	f := NewFanOut(KeyDst, stages...)

	routed := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < 500; i++ {
			rb := newBatch()
			rb.Recs = append(rb.Recs, testRec(routed, t0.Add(time.Duration(routed)*time.Second)))
			routed++
			if err := f.Process(rb); err != nil {
				t.Fatalf("round %d: Process: %v", round, err)
			}
			rb.Release()
		}
		if err := f.Barrier(func() error {
			total := 0
			for _, s := range shards {
				total += s.count
			}
			if total != routed {
				t.Errorf("round %d: barrier sees %d processed, %d routed", round, total, routed)
			}
			return nil
		}); err != nil {
			t.Fatalf("round %d: Barrier: %v", round, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range shards {
		total += s.count
	}
	if total != routed {
		t.Fatalf("after close: %d processed, %d routed", total, routed)
	}
}

// TestBarrierPropagatesCallbackError pins that fn's error comes back
// and the pipeline still resumes.
func TestBarrierPropagatesCallbackError(t *testing.T) {
	t0 := time.Date(2018, 12, 1, 0, 0, 0, 0, time.UTC)
	shards := []*slowCountStage{{}, {}}
	f := NewFanOut(KeyDst, shards[0], shards[1])
	boom := errors.New("boom")
	if err := f.Barrier(func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Barrier error = %v, want %v", err, boom)
	}
	b := newBatch()
	b.Recs = append(b.Recs, testRec(1, t0))
	if err := f.Process(b); err != nil {
		t.Fatalf("Process after failed barrier: %v", err)
	}
	b.Release()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if shards[0].count+shards[1].count != 1 {
		t.Fatal("record lost after barrier error")
	}
}

// TestResumeRestoresPipelinePosition pins the checkpoint-resume
// contract: a fresh fan-out primed with Resume stamps records with the
// watermark and sequence the previous run left off at.
func TestResumeRestoresPipelinePosition(t *testing.T) {
	t0 := time.Date(2018, 12, 1, 0, 0, 0, 0, time.UTC)
	c := &collectStage{}
	f := NewFanOut(KeyDst, c)
	f.SetMarkFilter(func(r *flow.Record) bool { return true })
	f.Resume(t0.Unix(), 42)
	if got := f.Seq(); got != 42 {
		t.Fatalf("Seq after Resume = %d, want 42", got)
	}
	b := newBatch()
	// A record older than the resumed watermark must not lower it; a
	// newer one advances it as usual.
	b.Recs = append(b.Recs, testRec(0, t0.Add(-time.Hour)))
	b.Recs = append(b.Recs, testRec(1, t0.Add(time.Minute)))
	if err := f.Process(b); err != nil {
		t.Fatal(err)
	}
	b.Release()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if len(c.seqs) != 2 || c.seqs[0] != 42 || c.seqs[1] != 43 {
		t.Fatalf("seqs = %v, want [42 43]", c.seqs)
	}
	want := []int64{t0.Unix(), t0.Add(time.Minute).Unix()}
	if len(c.marks) != 2 || c.marks[0] != want[0] || c.marks[1] != want[1] {
		t.Fatalf("marks = %v, want %v", c.marks, want)
	}
}
