package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"booterscope/internal/chaos"
	"booterscope/internal/classify"
	"booterscope/internal/flow"
	"booterscope/internal/flowstore"
)

// fakeClock is the injected hand-over pacing clock: it moves only when
// a test moves it.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// firstAlertRecord returns the index of the record that raises the
// stream's first alert on the serial monitor.
func firstAlertRecord(t *testing.T, recs []flow.Record) int {
	t.Helper()
	m := classify.NewMonitor(testCfg)
	for i := range recs {
		if m.Add(&recs[i]) != nil {
			return i
		}
	}
	t.Fatal("stream raises no alert")
	return 0
}

// TestIngestHandsOverPartialSlabs pins the hand-over budget on a fake
// clock, feeding 24-record batches (one IPFIX datagram's worth): after
// an idle spell the first three calls hand over back to back, then one
// call per handOverEvery does, and the alert for the triggering record
// fires in the first call the budget lets through after it was routed
// — not earlier, not at Drain — whether there is no queue probe or one
// reading depth 0 or depth > 0 (the policy does not read it). One
// shard, so the stage runs inline and "during Ingest" is exact, and
// service_partial_flushes_total is checked after every call; the
// two-shard case checks the same alert reaches OnAlert while the
// daemon is still ingesting.
func TestIngestHandsOverPartialSlabs(t *testing.T) {
	const dgram = 24
	recs := genStream(3, 4_000)
	trigger := firstAlertRecord(t, recs)
	triggerCall := trigger / dgram
	if triggerCall < 3 || trigger > 3_000 {
		t.Fatalf("first alert at record %d: stream unsuitable", trigger)
	}
	burst := int(handOverBurst/handOverEvery) + 1 // hand-overs a full bucket allows at one instant

	for _, tc := range []struct {
		name  string
		depth int // -1: no probe
	}{
		{"no probe", -1},
		{"probe reads 0", 0},
		{"probe reads 5", 5},
	} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				alerted := make(chan int, 16)
				var calls atomic.Int64 // OnAlert runs on a shard worker at 2 shards
				opts := Options{
					Classify:    testCfg,
					Parallelism: shards,
					OnAlert: func(classify.Alert) {
						select {
						case alerted <- int(calls.Load()):
						default: // later alerts are not under test
						}
					},
				}
				if tc.depth >= 0 {
					opts.QueueDepth = func() (int, int) { return tc.depth, 1024 }
				}
				svc, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
				svc.now = clk.now
				call, flushes := 0, uint64(0)
				// ingest feeds the next datagram after moving the clock by
				// step and checks whether the budget let a hand-over through.
				ingest := func(step time.Duration, handsOver bool) {
					t.Helper()
					calls.Store(int64(call))
					clk.advance(step)
					if err := svc.Ingest(recs[call*dgram : (call+1)*dgram]); err != nil {
						t.Fatal(err)
					}
					call++
					if handsOver {
						flushes++
					}
					if got := svc.m.partialFlushes.Value(); got != flushes {
						t.Fatalf("after call %d (clock +%v): service_partial_flushes_total = %d, want %d",
							call-1, step, got, flushes)
					}
				}

				// A fresh daemon has been idle forever: a full burst, then
				// nothing while the clock stands still — the trigger record
				// is routed in that stretch and stays in its slab.
				for call <= triggerCall+1 {
					ingest(0, call < burst)
				}
				if shards == 1 && len(alerted) != 0 {
					t.Fatal("alert fired with the budget spent: slab handed over early")
				}
				// Half a refill is not a hand-over; the other half is, and
				// the alert fires in that call.
				ingest(handOverEvery/2, false)
				if shards == 1 && len(alerted) != 0 {
					t.Fatal("alert fired half a refill early")
				}
				ingest(handOverEvery/2, true)
				wantCall := call - 1
				if shards == 1 {
					select {
					case got := <-alerted:
						if got != wantCall {
							t.Fatalf("alert fired during Ingest call %d, want %d (trigger record in call %d)",
								got, wantCall, triggerCall)
						}
					default:
						t.Fatal("alert for a routed record is waiting for Drain")
					}
				}
				// The bucket is empty: one hand-over per refill.
				for range 4 {
					ingest(handOverEvery, true)
					ingest(0, false)
				}
				// An idle spell refills it: a burst again.
				ingest(time.Second, true)
				for i := 1; i < burst+2; i++ {
					ingest(0, i < burst)
				}
				// With workers a shard still holding an earlier slab in its
				// queue keeps filling, so which Ingest hands the record over
				// depends on scheduling — but one a refill later must.
				for fired := shards == 1; !fired; {
					select {
					case <-alerted:
						fired = true
					case <-time.After(10 * time.Millisecond):
						if (call+1)*dgram > len(recs) {
							t.Fatal("alert for a routed record never fired before Drain")
						}
						ingest(handOverEvery, true)
					}
				}
				if _, err := svc.Drain(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestServeHandsOverTrailingBatch is the bound on a quiet exporter's
// last datagrams: with the Ingest budget spent on a frozen clock, the
// slab holding the triggering record gets no further Ingest to hand it
// over, and Serve's evaluation tick must — the alert arrives before
// Drain, not from it.
func TestServeHandsOverTrailingBatch(t *testing.T) {
	recs := genStream(3, 4_000)
	trigger := firstAlertRecord(t, recs)
	burst := int(handOverBurst/handOverEvery) + 1
	if trigger < burst {
		t.Fatalf("first alert at record %d: stream unsuitable", trigger)
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			alerted := make(chan struct{}, 1)
			svc, err := New(Options{
				Classify:    testCfg,
				Parallelism: shards,
				OnAlert: func(classify.Alert) {
					select {
					case alerted <- struct{}{}:
					default:
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
			svc.now = clk.now
			// One record per call spends the budget; the rest up to the
			// trigger arrive in one last call the budget refuses.
			for i := 0; i < burst; i++ {
				if err := svc.Ingest(recs[i : i+1]); err != nil {
					t.Fatal(err)
				}
			}
			if err := svc.Ingest(recs[burst : trigger+1]); err != nil {
				t.Fatal(err)
			}
			if got := svc.m.partialFlushes.Value(); got != uint64(burst) {
				t.Fatalf("service_partial_flushes_total = %d, want %d: budget not spent", got, burst)
			}
			ctx, cancel := context.WithCancel(context.Background())
			served := make(chan struct{})
			go func() {
				defer close(served)
				svc.Serve(ctx, 0, time.Millisecond)
			}()
			select {
			case <-alerted:
			case <-time.After(5 * time.Second):
				t.Error("trailing batch never handed over: the alert waits for Drain")
			}
			cancel()
			<-served
			if _, err := svc.Drain(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// jitter makes the hand-over policy's one input hostile: the clock
// jumps by a random step, from nothing to a minute, at every read.
type jitter struct {
	rng *rand.Rand
	t   time.Time
}

func (j *jitter) now() time.Time {
	steps := [...]time.Duration{0, 0, 50 * time.Microsecond, time.Millisecond, time.Minute}
	j.t = j.t.Add(steps[j.rng.Intn(len(steps))])
	return j.t
}

// open is openService under this jitter, with the shard count drawn
// too (checkpoints are shard-count independent).
func (j *jitter) open(t *testing.T, dir, storeDir string) *Service {
	t.Helper()
	svc := openService(t, dir, storeDir, testCfg, Options{Parallelism: 1 << j.rng.Intn(3)})
	svc.now = j.now
	return svc
}

// feed ingests recs in calls of 1…600 records.
func (j *jitter) feed(t *testing.T, s *Service, recs []flow.Record) {
	t.Helper()
	for off := 0; off < len(recs); {
		n := min(1+j.rng.Intn(600), len(recs)-off)
		if err := s.Ingest(recs[off : off+n]); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		off += n
	}
}

// TestHandOverPolicyCannotChangeCheckpoints is the service-level twin
// of classify's TestShardedHandOverPointsCannotChangeResult: however
// the clock jumps and the input is cut into Ingest calls — so wherever
// the daemon hands partial slabs over — the published checkpoint bytes are
// those of the default run, and the restore-and-replay equality of
// TestCheckpointRestoreMatchesUninterrupted (same schedule, same
// stream) still holds.
func TestHandOverPolicyCannotChangeCheckpoints(t *testing.T) {
	recs := genStream(1, 24_000)
	p1, p2 := len(recs)/3, 2*len(recs)/3

	dirA, storeA := t.TempDir(), t.TempDir()
	svcA := openService(t, dirA, storeA, testCfg, Options{})
	feed(t, svcA, recs[:p1])
	mustCheckpoint(t, svcA)
	midA := readCheckpoint(t, dirA)
	feed(t, svcA, recs[p1:p2])
	if err := svcA.opts.Store.Seal(); err != nil {
		t.Fatal(err)
	}
	feed(t, svcA, recs[p2:])
	repA, err := svcA.Drain()
	if err != nil {
		t.Fatalf("drain A: %v", err)
	}
	alertsA, finalA := svcA.Alerts(), readCheckpoint(t, dirA)

	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			j := &jitter{rng: rand.New(rand.NewSource(seed)), t: time.Unix(1_700_000_000, 0)}
			dirB, storeB := t.TempDir(), t.TempDir()
			svcB := j.open(t, dirB, storeB)
			j.feed(t, svcB, recs[:p1])
			mustCheckpoint(t, svcB)
			if !bytes.Equal(readCheckpoint(t, dirB), midA) {
				t.Fatal("mid-stream checkpoint differs from the default run's")
			}
			prefixAlerts := quiesceAlerts(t, svcB)
			j.feed(t, svcB, recs[p1:p2])
			if err := svcB.opts.Store.Seal(); err != nil {
				t.Fatal(err)
			}
			// svcB is abandoned here — the simulated SIGKILL.

			svcC := j.open(t, dirB, storeB)
			if _, err := svcC.ReplayFromStore(); err != nil {
				t.Fatalf("replay: %v", err)
			}
			j.feed(t, svcC, recs[p2:])
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
			if !bytes.Equal(readCheckpoint(t, dirB), finalA) {
				t.Fatal("final checkpoint differs from the default run's")
			}
			st := svcC.stats()
			if svcC.m.partialFlushes.Value() == 0 || st.IngestedRecords == 0 {
				t.Fatal("no partial hand-over happened — property not exercised")
			}
		})
	}
}

// TestArchiveErrorDoesNotCostDetection kills the archive at write op k
// (crashed-disk shape: every later write fails too): every batch is
// still classified and counted, so the alert set is the one a daemon
// with no store raises; Ingest still reports the archive error; and
// the store's ledger stays exact.
func TestArchiveErrorDoesNotCostDetection(t *testing.T) {
	recs := genStream(4, 12_000)
	bare, err := New(Options{Classify: testCfg, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, bare, recs)
	if _, err := bare.Drain(); err != nil {
		t.Fatal(err)
	}
	want := bare.Alerts()
	if len(want) == 0 {
		t.Fatal("degenerate stream: no alerts")
	}

	for _, k := range []uint64{0, 1, 7, 40} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			st, err := flowstore.Open(t.TempDir(), flowstore.Options{
				Shards: 2, BlockRecords: 64, NoSync: true, WriteFault: chaos.FailFrom(k),
			})
			if err != nil {
				t.Fatal(err)
			}
			svc, err := New(Options{Classify: testCfg, Parallelism: 4, Store: st})
			if err != nil {
				t.Fatal(err)
			}
			var failed uint64
			for off := 0; off < len(recs); off += 400 {
				switch err := svc.Ingest(recs[off:min(off+400, len(recs))]); {
				case errors.Is(err, chaos.ErrInjected):
					failed++
				case err != nil:
					t.Fatalf("Ingest: %v", err)
				}
			}
			_, _ = svc.Drain() // sealing the dead archive fails; detection state is what matters
			if got := svc.Alerts(); !reflect.DeepEqual(got, want) {
				t.Fatalf("alerts under a failing archive diverge: got %d, want %d", len(got), len(want))
			}
			if failed == 0 || svc.m.archiveErrors.Value() != failed {
				t.Fatalf("%d Ingest calls reported the archive error, service_archive_errors_total = %d",
					failed, svc.m.archiveErrors.Value())
			}
			if got := svc.stats().IngestedRecords; got != uint64(len(recs)) {
				t.Fatalf("service counted %d ingested records, want %d", got, len(recs))
			}
			ss := st.Stats()
			if ss.RecordsAppended != uint64(len(recs)) || ss.RecordsDropped == 0 ||
				ss.RecordsAppended != ss.RecordsDurable+ss.RecordsBuffered+ss.RecordsDropped {
				t.Fatalf("archive ledger broken: %+v", ss)
			}
		})
	}
}
