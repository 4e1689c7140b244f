package service

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"booterscope/internal/chaos"
	"booterscope/internal/classify"
	"booterscope/internal/durable"
	"booterscope/internal/flow"
	"booterscope/internal/flowstore"
	"booterscope/internal/packet"
)

// testCfg lowers the thresholds so the synthetic streams below raise
// alerts without terabit volumes.
var testCfg = classify.Config{MinRateBps: 50_000, MinSources: 3}

// genStream builds a deterministic amplification-shaped stream with
// strictly increasing timestamps (the archive-replay contract), many
// victims (so checkpoints span multiple bins frames), enough duration
// for evictions and re-alerts, and benign/non-NTP records mixed in.
func genStream(seed int64, n int) []flow.Record {
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2018, 12, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]flow.Record, 0, n)
	for i := 0; i < n; i++ {
		start := base.Add(time.Duration(i) * 250 * time.Millisecond)
		pkts := uint64(1 + rng.Intn(1500))
		rec := flow.Record{
			Key: flow.Key{
				Src:      netip.AddrFrom4([4]byte{198, 51, 100, byte(rng.Intn(64))}),
				Dst:      netip.AddrFrom4([4]byte{203, 0, 113, byte(rng.Intn(40))}),
				SrcPort:  classify.NTPPort,
				DstPort:  uint16(1024 + rng.Intn(5000)),
				Protocol: packet.IPProtoUDP,
			},
			Packets:      pkts,
			Bytes:        pkts * 480,
			Start:        start,
			End:          start.Add(time.Second),
			SamplingRate: 1,
		}
		switch rng.Intn(6) {
		case 0: // benign NTP: small packets, filtered out
			rec.Bytes = rec.Packets * 76
		case 1: // non-NTP
			rec.SrcPort = 443
		}
		recs = append(recs, rec)
	}
	return recs
}

// openService opens a daemon over dir/storeDir with 4 shards. The
// returned store is owned by the test (abandon it to simulate a
// crash; reopening the same storeDir runs flowstore recovery).
func openService(t *testing.T, dir, storeDir string, cfg classify.Config, opts Options) *Service {
	t.Helper()
	opts.Classify = cfg
	if opts.Parallelism == 0 {
		opts.Parallelism = 4
	}
	opts.CheckpointDir = dir
	if storeDir != "" {
		st, err := flowstore.Open(storeDir, flowstore.Options{Shards: 2, BlockRecords: 64, NoSync: true})
		if err != nil {
			t.Fatalf("opening store: %v", err)
		}
		opts.Store = st
	}
	svc, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return svc
}

func feed(t *testing.T, s *Service, recs []flow.Record) {
	t.Helper()
	for off := 0; off < len(recs); off += 400 {
		end := off + 400
		if end > len(recs) {
			end = len(recs)
		}
		if err := s.Ingest(recs[off:end]); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
}

func mustCheckpoint(t *testing.T, s *Service) {
	t.Helper()
	if n, err := s.checkpoint(); err != nil || n == 0 {
		t.Fatalf("Checkpoint = %d, %v", n, err)
	}
}

// quiesceAlerts reads the alerts raised so far with the pipeline
// stopped at the barrier — the white-box way to observe a daemon that
// will be abandoned (crashed) rather than drained.
func quiesceAlerts(t *testing.T, s *Service) []classify.Alert {
	t.Helper()
	var alerts []classify.Alert
	s.mu.Lock()
	err := s.fan.Barrier(func() error { alerts = s.monitor.Alerts(); return nil })
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	return alerts
}

func readCheckpoint(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(checkpointPath(dir))
	if err != nil {
		t.Fatalf("reading checkpoint: %v", err)
	}
	return b
}

func TestCheckpointCodecRoundTrip(t *testing.T) {
	snap := &classify.MonitorSnapshot{
		LatestUnix: 1543600000, LatestValid: true,
		Stats: classify.MonitorStats{Records: 10, Matched: 7, Alerts: 2, EvictedBins: 1},
	}
	for i := 0; i < 600; i++ { // > binsPerFrame: multiple bins frames
		snap.Bins = append(snap.Bins, classify.BinSnapshot{
			Victim:     [16]byte{0: byte(i >> 8), 1: byte(i)},
			MinuteUnix: int64(1543600000 + 60*i),
			Bytes:      uint64(i) * 1000,
			Sources:    [][16]byte{{2: byte(i)}, {3: byte(i)}},
		})
	}
	snap.Alerted = []classify.AlertMarker{{Victim: [16]byte{9}, MinuteUnix: 1543600060}}
	cp := &Checkpoint{
		Watermark: 1543600123, Seq: 4242, StoreDurable: 999,
		Config:  classify.Config{SizeThreshold: 200, MinRateBps: 50_000, MinSources: 3},
		Monitor: snap,
	}
	enc := EncodeCheckpoint(cp)
	if !bytes.Equal(enc, EncodeCheckpoint(cp)) {
		t.Fatal("encoding is not deterministic")
	}
	got, err := decodeCheckpoint(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatal("round trip diverges")
	}

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			if _, err := decodeCheckpoint(mutate(append([]byte(nil), enc...))); err == nil {
				t.Fatalf("%s: decoded without error", name)
			}
		})
	}
	corrupt("torn tail", func(b []byte) []byte { return b[:len(b)-5] })
	corrupt("missing trailer", func(b []byte) []byte { return b[:len(b)-9] })
	corrupt("bit flip", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b })
	corrupt("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	corrupt("data after trailer", func(b []byte) []byte { return append(b, 0, 0, 0, 1, 0, 0, 0, 0, 7) })
	corrupt("empty", func([]byte) []byte { return nil })
}

// TestCheckpointBytesFrozen freezes the bytes encodeCheckpoint produces
// (header, three bins frames, alerted, attacks, trailer). The digest was
// computed at commit aaa50f7, the last one where this package framed its
// own files, and is never regenerated: the shared envelope in
// internal/durable must write what the private one wrote.
func TestCheckpointBytesFrozen(t *testing.T) {
	const golden = "92044a60533d330bc445fc3149290c5cdc6c06a36dc17de367c55ddd0f145e4c"
	snap := &classify.MonitorSnapshot{
		LatestUnix: 1543600000, LatestValid: true,
		Stats: classify.MonitorStats{Records: 10, Matched: 7, Alerts: 2, RejectedRecords: 3, EvictedBins: 1, SourceOverflows: 4},
	}
	for i := 0; i < 600; i++ {
		snap.Bins = append(snap.Bins, classify.BinSnapshot{
			Victim:         [16]byte{0: byte(i >> 8), 1: byte(i)},
			MinuteUnix:     int64(1543600000 + 60*i),
			Bytes:          uint64(i) * 1000,
			SourceOverflow: uint64(i % 7),
			Sources:        [][16]byte{{2: byte(i)}, {3: byte(i)}},
		})
	}
	snap.Alerted = []classify.AlertMarker{{Victim: [16]byte{9}, MinuteUnix: 1543600060}}
	snap.Attacks = []classify.AttackSnapshot{{Victim: [16]byte{9}, ID: 77, OpenedUnix: 1543600060, LastUnix: 1543600120}}
	enc := EncodeCheckpoint(&Checkpoint{
		Watermark: 1543600123, Seq: 4242, StoreDurable: 999,
		Config:  classify.Config{SizeThreshold: 200, MinRateBps: 50_000, MinSources: 3},
		Monitor: snap,
	})
	if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != golden {
		t.Fatalf("checkpoint bytes changed: %d bytes, sha256 %s, want %s", len(enc), got, golden)
	}
}

// TestCheckpointRestoreMatchesUninterrupted is the tentpole property:
// a daemon killed after a checkpoint and restarted — restoring monitor
// state, resuming the pipeline position, replaying the archive past
// the checkpoint's durability watermark — matches a never-restarted
// daemon exactly: same alerts (the mid-window ones re-raised, i.e. no
// detection gap), same accounting, and a byte-identical final
// checkpoint. A snapshot attempt dying mid-write under injected
// faults must not perturb any of it.
func TestCheckpointRestoreMatchesUninterrupted(t *testing.T) {
	recs := genStream(1, 24_000)
	p1, p2 := len(recs)/3, 2*len(recs)/3

	// Reference: never restarted, same checkpoint/durability schedule.
	dirA, storeA := t.TempDir(), t.TempDir()
	svcA := openService(t, dirA, storeA, testCfg, Options{})
	feed(t, svcA, recs[:p1])
	mustCheckpoint(t, svcA)
	feed(t, svcA, recs[p1:p2])
	if err := svcA.opts.Store.Seal(); err != nil {
		t.Fatal(err)
	}
	feed(t, svcA, recs[p2:])
	repA, err := svcA.Drain()
	if err != nil {
		t.Fatalf("drain A: %v", err)
	}
	alertsA := svcA.Alerts()
	if len(alertsA) == 0 || repA.Monitor.EvictedBins == 0 {
		t.Fatalf("degenerate stream: %d alerts, %d evictions", len(alertsA), repA.Monitor.EvictedBins)
	}

	// Interrupted: prefix → checkpoint → mid → SIGKILL (abandoned, no
	// drain). The archive is sealed before the crash — loss past the
	// durability point is the flowstore's own chaos-tested story; this
	// test pins the checkpoint/restore machinery.
	dirB, storeDirB := t.TempDir(), t.TempDir()
	svcB := openService(t, dirB, storeDirB, testCfg, Options{})
	feed(t, svcB, recs[:p1])
	mustCheckpoint(t, svcB)
	prefixAlerts := quiesceAlerts(t, svcB)

	// A checkpoint attempt that dies mid-write (fault injected from
	// write op 2 on, crashed-process shape) must fail loudly and leave
	// the published snapshot untouched.
	published := readCheckpoint(t, dirB)
	svcB.opts.WriteFault = chaos.FailFrom(2)
	if _, err := svcB.checkpoint(); err == nil {
		t.Fatal("checkpoint under write faults succeeded")
	}
	svcB.opts.WriteFault = nil
	if got := readCheckpoint(t, dirB); !bytes.Equal(got, published) {
		t.Fatal("failed checkpoint attempt perturbed the published snapshot")
	}
	if svcB.stats().CheckpointFailures != 1 {
		t.Fatalf("checkpoint failures = %d, want 1", svcB.stats().CheckpointFailures)
	}

	feed(t, svcB, recs[p1:p2])
	if err := svcB.opts.Store.Seal(); err != nil {
		t.Fatal(err)
	}
	crashAlerts := quiesceAlerts(t, svcB)
	// svcB is abandoned here — the simulated SIGKILL.

	// Restart: restore the checkpoint, replay the archive past its
	// durability watermark, then resume the live stream.
	svcC := openService(t, dirB, storeDirB, testCfg, Options{})
	rr := svcC.Restore()
	if !rr.Restored || rr.Corrupt {
		t.Fatalf("restore report = %+v", rr)
	}
	replayed, err := svcC.ReplayFromStore()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if want := uint64(p2 - p1); replayed != want {
		t.Fatalf("replayed %d records, want %d", replayed, want)
	}
	replayAlerts := quiesceAlerts(t, svcC)
	// The alerts the crashed daemon raised after its checkpoint are
	// re-raised identically on replay: restart re-alerts, no gap.
	if want := crashAlerts[len(prefixAlerts):]; !reflect.DeepEqual(replayAlerts, want) {
		t.Fatalf("replay re-alerts diverge:\ngot  %v\nwant %v", replayAlerts, want)
	}
	if len(replayAlerts) == 0 {
		t.Fatal("no alerts re-raised across the restart window — property not exercised")
	}

	feed(t, svcC, recs[p2:])
	repC, err := svcC.Drain()
	if err != nil {
		t.Fatalf("drain C: %v", err)
	}

	got := append(append([]classify.Alert(nil), prefixAlerts...), svcC.Alerts()...)
	if !reflect.DeepEqual(got, alertsA) {
		t.Fatalf("alert series diverges: got %d, want %d", len(got), len(alertsA))
	}
	if repC.Monitor != repA.Monitor {
		t.Fatalf("monitor accounting diverges:\ngot  %+v\nwant %+v", repC.Monitor, repA.Monitor)
	}
	// Zero double counting: every record classified exactly once.
	if repC.Monitor.Records != uint64(len(recs)) {
		t.Fatalf("monitor saw %d records, want %d", repC.Monitor.Records, len(recs))
	}
	// The final checkpoints — bins, markers, clock, counters, config,
	// pipeline position, durability watermark — are byte-identical.
	if !bytes.Equal(readCheckpoint(t, dirA), readCheckpoint(t, dirB)) {
		t.Fatal("final checkpoints differ between restarted and uninterrupted runs")
	}
}

// TestCheckpointCrashAtEveryWriteOffset kills the snapshot writer at
// every fault-injection offset (crashed-process shape: once an op
// fails, all later ops fail). Whatever the offset, the previous
// snapshot must be adopted on restart, the archive replayed from its
// watermark, and no record double counted.
func TestCheckpointCrashAtEveryWriteOffset(t *testing.T) {
	recs := genStream(2, 12_000)
	p1, p2 := len(recs)/3, 2*len(recs)/3

	// Reference run, same schedule, no faults.
	dirR, storeR := t.TempDir(), t.TempDir()
	svcR := openService(t, dirR, storeR, testCfg, Options{})
	feed(t, svcR, recs[:p1])
	mustCheckpoint(t, svcR)
	feed(t, svcR, recs[p1:p2])
	if err := svcR.opts.Store.Seal(); err != nil {
		t.Fatal(err)
	}
	probe := chaos.NewFailpoint() // counts ops, never fires
	svcR.opts.WriteFault = probe
	mustCheckpoint(t, svcR)
	svcR.opts.WriteFault = nil
	ops := int(probe.Ops())
	if ops < 5 {
		t.Fatalf("checkpoint is only %d fault-visible ops — hook broken?", ops)
	}
	prefixAlertsR := quiesceAlerts(t, svcR)
	_ = prefixAlertsR
	feed(t, svcR, recs[p2:])
	repR, err := svcR.Drain()
	if err != nil {
		t.Fatal(err)
	}
	refAlerts := svcR.Alerts()
	refFinal := readCheckpoint(t, dirR)

	for off := 0; off < ops; off++ {
		dir, storeDir := t.TempDir(), t.TempDir()
		svc := openService(t, dir, storeDir, testCfg, Options{})
		feed(t, svc, recs[:p1])
		mustCheckpoint(t, svc)
		published := readCheckpoint(t, dir)
		prefixAlerts := quiesceAlerts(t, svc)
		feed(t, svc, recs[p1:p2])
		if err := svc.opts.Store.Seal(); err != nil {
			t.Fatal(err)
		}
		svc.opts.WriteFault = chaos.FailFrom(uint64(off))
		if _, err := svc.checkpoint(); err == nil {
			t.Fatalf("offset %d: checkpoint survived its injected crash", off)
		}
		// The simulated kill: svc is abandoned. The published file must
		// be the previous snapshot, with no torn temp file left behind.
		if got := readCheckpoint(t, dir); !bytes.Equal(got, published) {
			t.Fatalf("offset %d: published checkpoint perturbed", off)
		}
		if _, err := os.Stat(filepath.Join(dir, "checkpoint.tmp")); !os.IsNotExist(err) {
			t.Fatalf("offset %d: stale checkpoint.tmp left behind (err=%v)", off, err)
		}

		svc2 := openService(t, dir, storeDir, testCfg, Options{})
		rr := svc2.Restore()
		if !rr.Restored || rr.Corrupt {
			t.Fatalf("offset %d: restore report = %+v", off, rr)
		}
		replayed, err := svc2.ReplayFromStore()
		if err != nil {
			t.Fatalf("offset %d: replay: %v", off, err)
		}
		if want := uint64(p2 - p1); replayed != want {
			t.Fatalf("offset %d: replayed %d, want %d", off, replayed, want)
		}
		feed(t, svc2, recs[p2:])
		rep, err := svc2.Drain()
		if err != nil {
			t.Fatalf("offset %d: drain: %v", off, err)
		}
		if rep.Monitor != repR.Monitor {
			t.Fatalf("offset %d: accounting diverges:\ngot  %+v\nwant %+v", off, rep.Monitor, repR.Monitor)
		}
		if rep.Monitor.Records != uint64(len(recs)) {
			t.Fatalf("offset %d: %d records classified, want %d (double counting)", off, rep.Monitor.Records, len(recs))
		}
		got := append(append([]classify.Alert(nil), prefixAlerts...), svc2.Alerts()...)
		if !reflect.DeepEqual(got, refAlerts) {
			t.Fatalf("offset %d: alert series diverges (%d vs %d alerts)", off, len(got), len(refAlerts))
		}
		if !bytes.Equal(readCheckpoint(t, dir), refFinal) {
			t.Fatalf("offset %d: final checkpoint differs from reference", off)
		}
	}
}

// TestCorruptCheckpointFallsBackToColdStartWithReplay pins the
// torn-file stance: a damaged checkpoint is detected, counted, and the
// daemon rebuilds the whole state from the archive.
func TestCorruptCheckpointFallsBackToColdStartWithReplay(t *testing.T) {
	recs := genStream(3, 8_000)
	dir, storeDir := t.TempDir(), t.TempDir()
	svc := openService(t, dir, storeDir, testCfg, Options{})
	feed(t, svc, recs)
	mustCheckpoint(t, svc)
	if err := svc.opts.Store.Seal(); err != nil {
		t.Fatal(err)
	}
	refStats := svc.MonitorStats()
	// Abandon svc; tear the checkpoint's tail.
	b := readCheckpoint(t, dir)
	if err := os.WriteFile(checkpointPath(dir), b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	svc2 := openService(t, dir, storeDir, testCfg, Options{})
	rr := svc2.Restore()
	if rr.Restored || !rr.Corrupt {
		t.Fatalf("restore report = %+v, want corrupt cold start", rr)
	}
	if svc2.stats().Checkpoints != 0 || svc2.stats().Restores != 0 {
		t.Fatalf("stats = %+v", svc2.stats())
	}
	replayed, err := svc2.ReplayFromStore()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if replayed != uint64(len(recs)) {
		t.Fatalf("cold start replayed %d, want all %d", replayed, len(recs))
	}
	rep, err := svc2.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Monitor != refStats {
		t.Fatalf("rebuilt accounting = %+v, want %+v", rep.Monitor, refStats)
	}
}

// TestCheckpointRejectsUnsortedOrDuplicateEntries holds the decoder to
// the snapshot's sort orders. testdata/duplicate-bin.bsck is a
// checkpoint whose every frame passes its CRC but whose bins frame
// lists five entries, 203.0.113.2's bin twice; restored, it left the
// occupancy gauge at 5 over a 4-bin table. It must decode as corrupt,
// so the daemon cold-starts (and replays its archive), and so must a
// frame listing bins, alert markers or attacks out of order or twice.
func TestCheckpointRejectsUnsortedOrDuplicateEntries(t *testing.T) {
	seed, err := os.ReadFile(filepath.Join("testdata", "duplicate-bin.bsck"))
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.Walk(seed[len(ckptMagic):], func(int, []byte) error { return nil }); err != nil {
		t.Fatalf("seed fails its envelope, so it does not test the decoder: %v", err)
	}
	if _, err := decodeCheckpoint(seed); !errors.Is(err, errCheckpointCorrupt) {
		t.Fatalf("duplicate bin decoded: err = %v", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(checkpointPath(dir), seed, 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Options{Classify: testCfg, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rr := svc.Restore(); rr.Restored || !rr.Corrupt {
		t.Fatalf("restore report = %+v, want corrupt cold start", rr)
	}
	if h := svc.Health().Monitor; h.ActiveMinutes != 0 {
		t.Fatalf("cold start holds %d bins", h.ActiveMinutes)
	}
	if _, err := svc.Drain(); err != nil {
		t.Fatal(err)
	}

	victim := func(i byte) [16]byte { return [16]byte{10: 0xff, 11: 0xff, 12: 203, 14: 113, 15: i} }
	const minute = 1543600020
	valid := func() *Checkpoint {
		snap := &classify.MonitorSnapshot{LatestUnix: minute + 60, LatestValid: true}
		for i := range 300 { // > binsPerFrame: the order holds across frames too
			snap.Bins = append(snap.Bins, classify.BinSnapshot{
				Victim: victim(byte(i / 2)), MinuteUnix: minute + 60*int64(i%2), Bytes: 1000,
			})
		}
		snap.Alerted = []classify.AlertMarker{{Victim: victim(1), MinuteUnix: minute}, {Victim: victim(2), MinuteUnix: minute}}
		snap.Attacks = []classify.AttackSnapshot{{Victim: victim(1), ID: 1}, {Victim: victim(2), ID: 2}}
		return &Checkpoint{Config: testCfg, Monitor: snap}
	}
	if _, err := decodeCheckpoint(EncodeCheckpoint(valid())); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(s *classify.MonitorSnapshot)
	}{
		{"bins unsorted by victim", func(s *classify.MonitorSnapshot) { s.Bins[1], s.Bins[2] = s.Bins[2], s.Bins[1] }},
		{"bins unsorted by minute", func(s *classify.MonitorSnapshot) { s.Bins[0], s.Bins[1] = s.Bins[1], s.Bins[0] }},
		{"bin duplicated across frames", func(s *classify.MonitorSnapshot) { s.Bins[binsPerFrame] = s.Bins[binsPerFrame-1] }},
		{"marker duplicated", func(s *classify.MonitorSnapshot) { s.Alerted[1] = s.Alerted[0] }},
		{"markers unsorted", func(s *classify.MonitorSnapshot) { s.Alerted[0], s.Alerted[1] = s.Alerted[1], s.Alerted[0] }},
		{"attack duplicated", func(s *classify.MonitorSnapshot) { s.Attacks[1].Victim = s.Attacks[0].Victim }},
		{"attacks unsorted", func(s *classify.MonitorSnapshot) { s.Attacks[0], s.Attacks[1] = s.Attacks[1], s.Attacks[0] }},
	} {
		cp := valid()
		tc.mutate(cp.Monitor)
		if _, err := decodeCheckpoint(EncodeCheckpoint(cp)); !errors.Is(err, errCheckpointCorrupt) {
			t.Errorf("%s: err = %v, want errCheckpointCorrupt", tc.name, err)
		}
	}
}
