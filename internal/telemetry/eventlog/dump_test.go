package eventlog

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"booterscope/internal/chaos"
)

func sampleEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{
			Seq:       uint64(i),
			WallNanos: int64(1700000000_000000000 + i),
			MonoNanos: int64(1000 * (i + 1)),
			Component: "classify",
			Kind:      "classify_alert_raised",
			AttackID:  uint64(i%3 + 1),
			Attrs: []Attr{
				A("victim", "203.0.113.7"),
				AInt("i", int64(i)),
			},
		}
	}
	return evs
}

func TestDumpRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, eventsPerFrame, eventsPerFrame + 1, 3*eventsPerFrame + 17} {
		events := sampleEvents(n)
		enc := EncodeDump("slo_burn", 42, events)
		d, err := decodeDump(enc)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if d.Reason != "slo_burn" || d.WallNanos != 42 {
			t.Fatalf("n=%d: header = %q/%d", n, d.Reason, d.WallNanos)
		}
		if len(d.Events) != n {
			t.Fatalf("n=%d: decoded %d events", n, len(d.Events))
		}
		if n > 0 && !reflect.DeepEqual(d.Events, events) {
			t.Fatalf("n=%d: events do not round-trip", n)
		}
	}
}

// TestDumpBytesFrozen freezes the bytes encodeDump produces (header,
// four event frames, trailer). The digest was computed at commit
// aaa50f7, the last one where this package framed its own files, and is
// never regenerated.
func TestDumpBytesFrozen(t *testing.T) {
	const golden = "f9b904f7625fdab0647e0126fff3b6dee54d9d1ff15555fe7ef91f0429872b6c"
	enc := EncodeDump("slo_burn", 42, sampleEvents(3*eventsPerFrame+17))
	if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != golden {
		t.Fatalf("dump bytes changed: %d bytes, sha256 %s, want %s", len(enc), got, golden)
	}
}

func TestDecodeDumpRejectsDamage(t *testing.T) {
	enc := EncodeDump("drain", 1, sampleEvents(10))
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("NOTMAGIC"), enc[8:]...),
		"torn tail":   enc[:len(enc)-5],
		"no trailer":  enc[:len(enc)-9],
		"flipped bit": flipBit(enc, len(enc)/2),
	}
	for name, b := range cases {
		if _, err := decodeDump(b); !errors.Is(err, errDumpCorrupt) {
			t.Errorf("%s: err = %v, want ErrDumpCorrupt", name, err)
		}
	}
}

func flipBit(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x40
	return out
}

func TestSaveLoadDump(t *testing.T) {
	dir := t.TempDir()
	events := sampleEvents(200)
	path, n, err := saveDump(dir, "shed_escalation", 7, events, nil)
	if err != nil {
		t.Fatalf("SaveDump: %v", err)
	}
	if path != dumpPath(dir, "shed_escalation") {
		t.Fatalf("path = %q", path)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != n {
		t.Fatalf("stat %q: %v size %d want %d", path, err, fi.Size(), n)
	}
	d, err := LoadDump(path)
	if err != nil {
		t.Fatalf("LoadDump: %v", err)
	}
	if d.Reason != "shed_escalation" || len(d.Events) != 200 {
		t.Fatalf("loaded %q with %d events", d.Reason, len(d.Events))
	}
}

func TestSaveDumpRejectsBadReason(t *testing.T) {
	for _, r := range []string{"", "Bad", "has space", "../evil"} {
		if _, _, err := saveDump(t.TempDir(), r, 0, nil, nil); err == nil {
			t.Errorf("reason %q accepted", r)
		}
	}
}

func TestLogDumpTo(t *testing.T) {
	l := New(64)
	for i := 0; i < 20; i++ {
		l.Emit("service", "service_checkpoint_saved", 0, AInt("i", int64(i)))
	}
	dir := t.TempDir()
	path, _, err := l.DumpTo(dir, "drain", nil)
	if err != nil {
		t.Fatalf("DumpTo: %v", err)
	}
	d, err := LoadDump(path)
	if err != nil {
		t.Fatalf("LoadDump: %v", err)
	}
	if len(d.Events) != 20 {
		t.Fatalf("dumped %d events, want 20", len(d.Events))
	}
	if got := l.m.dumps.Value(); got != 1 {
		t.Fatalf("dumps counter = %d", got)
	}
}

// TestDumpCrashAtEveryWriteOffset is the incident-chaos gate: a first
// complete dump is published, then a re-dump is killed at every write,
// fsync, and rename offset in turn. After every crash the visible dump
// must still be the previous complete one — never a torn file — and a
// crash before any dump exists must leave no file at all.
func TestDumpCrashAtEveryWriteOffset(t *testing.T) {
	eventsA := sampleEvents(eventsPerFrame*2 + 9)
	eventsB := sampleEvents(eventsPerFrame*3 + 5)

	// Probe run: count the fault-checked operations of a full dump.
	probe := chaos.NewFailpoint()
	if _, _, err := saveDump(t.TempDir(), "slo_burn", 1, eventsB, probe); err != nil {
		t.Fatalf("probe dump: %v", err)
	}
	ops := probe.Ops()
	if ops < 5 {
		t.Fatalf("probe saw only %d ops; fault hooks missing", ops)
	}

	for off := uint64(0); off < ops; off++ {
		dir := t.TempDir()

		// Crash with no previous dump: no file may appear.
		if _, _, err := saveDump(dir, "slo_burn", 1, eventsB, chaos.FailFrom(off)); !errors.Is(err, chaos.ErrInjected) {
			t.Fatalf("off %d: first dump err = %v, want injected fault", off, err)
		}
		if _, err := os.Stat(dumpPath(dir, "slo_burn")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("off %d: torn or partial dump visible after crash with no previous dump", off)
		}

		// Publish a complete dump, then crash a re-dump at the offset:
		// the previous dump must survive intact.
		if _, _, err := saveDump(dir, "slo_burn", 1, eventsA, nil); err != nil {
			t.Fatalf("off %d: baseline dump: %v", off, err)
		}
		if _, _, err := saveDump(dir, "slo_burn", 2, eventsB, chaos.FailFrom(off)); !errors.Is(err, chaos.ErrInjected) {
			t.Fatalf("off %d: re-dump err = %v, want injected fault", off, err)
		}
		d, err := LoadDump(dumpPath(dir, "slo_burn"))
		if err != nil {
			t.Fatalf("off %d: previous dump damaged: %v", off, err)
		}
		if d.WallNanos != 1 || len(d.Events) != len(eventsA) {
			t.Fatalf("off %d: previous dump replaced by partial re-dump (wall %d, %d events)", off, d.WallNanos, len(d.Events))
		}
	}

	// Past the last offset the re-dump must succeed and replace.
	dir := t.TempDir()
	if _, _, err := saveDump(dir, "slo_burn", 1, eventsA, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := saveDump(dir, "slo_burn", 2, eventsB, chaos.FailFrom(ops)); err != nil {
		t.Fatalf("dump with fault beyond last op: %v", err)
	}
	d, err := LoadDump(dumpPath(dir, "slo_burn"))
	if err != nil || d.WallNanos != 2 || len(d.Events) != len(eventsB) {
		t.Fatalf("replacement dump wrong: %v %+v", err, d)
	}
}
