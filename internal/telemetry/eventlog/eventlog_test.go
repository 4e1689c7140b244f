package eventlog

import (
	"fmt"
	"sync"
	"testing"

	"booterscope/internal/telemetry"
)

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Emit("test", "test_event", 0)
	if got := l.Snapshot(); got != nil {
		t.Fatalf("nil log Snapshot = %v, want nil", got)
	}
	if l.Len() != 0 || l.Cap() != 0 || l.Emitted() != 0 || l.overwritten() != 0 {
		t.Fatal("nil log reports non-zero sizes")
	}
	if _, _, err := l.DumpTo(t.TempDir(), "noop", nil); err != nil {
		t.Fatalf("nil log DumpTo: %v", err)
	}
}

func TestEmitAndSnapshotOrder(t *testing.T) {
	l := New(64)
	for i := 0; i < 10; i++ {
		l.Emit("test", "test_event", uint64(i%3), AInt("i", int64(i)))
	}
	evs := l.Snapshot()
	if len(evs) != 10 {
		t.Fatalf("got %d events, want 10", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Component != "test" || ev.Kind != "test_event" {
			t.Fatalf("event %d = %+v", i, ev)
		}
		if ev.attr("i") != fmt.Sprint(i) {
			t.Fatalf("event %d attr i = %q", i, ev.attr("i"))
		}
		if i > 0 && ev.MonoNanos < evs[i-1].MonoNanos {
			t.Fatalf("monotonic time went backwards at event %d", i)
		}
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	l := New(8)
	if l.Cap() != 8 {
		t.Fatalf("Cap = %d, want 8", l.Cap())
	}
	for i := 0; i < 20; i++ {
		l.Emit("test", "test_event", 0, AInt("i", int64(i)))
	}
	evs := l.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("got %d events after wrap, want 8", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(12 + i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (newest 8)", i, ev.Seq, want)
		}
	}
	if l.overwritten() != 12 {
		t.Fatalf("Overwritten = %d, want 12", l.overwritten())
	}
	if l.Len() != 8 {
		t.Fatalf("Len = %d, want 8", l.Len())
	}
}

func TestSizeRoundsUpToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, DefaultRingSize}, {1, 1}, {3, 4}, {100, 128}} {
		if got := New(tc.in).Cap(); got != tc.want {
			t.Errorf("New(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestConcurrentEmitSnapshot drives writers and readers together under
// the race detector: every snapshot must be a set of well-formed
// events in strictly increasing sequence order.
func TestConcurrentEmitSnapshot(t *testing.T) {
	l := New(128)
	const writers = 8
	const perWriter = 500
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	readerWG.Add(2)
	for r := 0; r < 2; r++ {
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs := l.Snapshot()
				for i := 1; i < len(evs); i++ {
					if evs[i].Seq <= evs[i-1].Seq {
						t.Errorf("snapshot out of order: seq %d then %d", evs[i-1].Seq, evs[i].Seq)
						return
					}
				}
			}
		}()
	}
	writerWG.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				l.Emit("test", "test_event", uint64(w), AInt("i", int64(i)))
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if l.Emitted() != writers*perWriter {
		t.Fatalf("Emitted = %d, want %d", l.Emitted(), writers*perWriter)
	}
}

func TestActiveDefaultsToNil(t *testing.T) {
	if Active() != nil {
		t.Skip("another test installed a process-wide recorder")
	}
	Active().Emit("test", "test_event", 0) // must not panic
	l := New(8)
	SetActive(l)
	defer SetActive(nil)
	Active().Emit("test", "test_event", 0)
	if l.Len() != 1 {
		t.Fatalf("active log Len = %d, want 1", l.Len())
	}
}

func TestRegisterTelemetry(t *testing.T) {
	l := New(8)
	reg := telemetry.NewRegistry()
	l.RegisterTelemetry(reg)
	for i := 0; i < 12; i++ {
		l.Emit("test", "test_event", 0)
	}
	s := reg.Snapshot()
	vec, ok := s.Vectors["eventlog_events_total"]
	if !ok {
		t.Fatal("eventlog_events_total not registered")
	}
	var total uint64
	for _, v := range vec.Values {
		total += v.Value
	}
	if total != 12 {
		t.Fatalf("eventlog_events_total = %d, want 12", total)
	}
	if got := s.Gauges["eventlog_ring_events"]; got != 8 {
		t.Fatalf("eventlog_ring_events = %v, want 8", got)
	}
	if got := s.Gauges["eventlog_ring_capacity"]; got != 8 {
		t.Fatalf("eventlog_ring_capacity = %v, want 8", got)
	}
	if got := s.Gauges["eventlog_ring_overwritten_events"]; got != 4 {
		t.Fatalf("eventlog_ring_overwritten_events = %v, want 4", got)
	}
}
