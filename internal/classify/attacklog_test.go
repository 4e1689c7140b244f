package classify

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestAttackLogSummaries pins what the attack log records: interval,
// peak rate, source peak, threshold verdict, and alert count — for an
// attack that crosses the thresholds and one that never does.
func TestAttackLogSummaries(t *testing.T) {
	m := NewMonitor(Config{})
	m.TrackAttackLog = true

	// Crossing attack: three minutes, peaking in the second.
	feedAttack(m, "203.0.113.40", 100, 2, t0)
	feedAttack(m, "203.0.113.40", 120, 5, t0.Add(time.Minute))
	feedAttack(m, "203.0.113.40", 80, 3, t0.Add(2*time.Minute))
	// Sub-threshold attack: amplified shape, too few sources.
	feedAttack(m, "203.0.113.41", 5, 3, t0.Add(time.Minute))

	log := m.AttackLog()
	if len(log) != 2 {
		t.Fatalf("attack log has %d entries, want 2", len(log))
	}
	big, small := log[0], log[1]
	if big.Victim.String() != "203.0.113.40" {
		t.Fatalf("log order: first entry is %v", big.Victim)
	}
	if !big.Crossed || big.Alerts != 1 {
		t.Errorf("crossing attack: Crossed=%v Alerts=%d, want true/1", big.Crossed, big.Alerts)
	}
	if big.PeakGbps < 4.9 || big.PeakGbps > 5.1 {
		t.Errorf("crossing attack peak = %.2f Gbps, want ~5", big.PeakGbps)
	}
	if big.MaxSources != 120 {
		t.Errorf("crossing attack MaxSources = %d, want 120", big.MaxSources)
	}
	if got := big.LastMinuteUnix - big.FirstMinuteUnix; got != 120 {
		t.Errorf("crossing attack interval = %ds, want 120", got)
	}
	if small.Crossed || small.Alerts != 0 {
		t.Errorf("sub-threshold attack: Crossed=%v Alerts=%d, want false/0", small.Crossed, small.Alerts)
	}
	if small.MaxSources != 5 {
		t.Errorf("sub-threshold attack MaxSources = %d, want 5", small.MaxSources)
	}
}

// TestAttackLogIncludesEvicted: attacks whose bins aged out of
// retention still appear in the log, in (first minute, victim) order.
func TestAttackLogIncludesEvicted(t *testing.T) {
	m := NewMonitor(Config{})
	m.TrackAttackLog = true
	m.Retention = 2 * time.Minute
	feedAttack(m, "203.0.113.50", 50, 2, t0)
	// An hour later: the first attack is long evicted.
	feedAttack(m, "203.0.113.51", 50, 2, t0.Add(time.Hour))
	log := m.AttackLog()
	if len(log) != 2 {
		t.Fatalf("attack log has %d entries, want 2 (evicted + open)", len(log))
	}
	if log[0].Victim.String() != "203.0.113.50" || log[1].Victim.String() != "203.0.113.51" {
		t.Fatalf("log order wrong: %v, %v", log[0].Victim, log[1].Victim)
	}
	if !log[0].Crossed || !log[1].Crossed {
		t.Error("both attacks crossed the thresholds")
	}
}

// TestAttackLogOffByDefault: without TrackAttackLog the monitor keeps
// no per-attack history.
func TestAttackLogOffByDefault(t *testing.T) {
	m := NewMonitor(Config{})
	feedAttack(m, "203.0.113.60", 50, 2, t0)
	if log := m.AttackLog(); log != nil {
		t.Fatalf("untracked monitor returned %d log entries", len(log))
	}
}

// shardedAttackLog merges the shard monitors' attack logs after the
// pipeline has finished: victim-hash routing pins each victim's attacks
// to one shard, so concatenating the per-shard logs and re-sorting by
// (first minute, victim) must give the serial monitor's list.
func shardedAttackLog(sm *ShardedMonitor) []AttackSummary {
	var all []AttackSummary
	for _, m := range sm.Monitors() {
		all = append(all, m.AttackLog()...)
	}
	sortAttackSummaries(all)
	return all
}

// TestShardedAttackLogMatchesSerial: the merged per-shard attack logs
// equal the serial monitor's log at every shard count, so the live
// daemon's sharded monitors keep the attacks a serial run logs.
func TestShardedAttackLogMatchesSerial(t *testing.T) {
	cfg := Config{MinRateBps: 50_000, MinSources: 3}
	tune := func(m *Monitor) {
		m.Retention = 5 * time.Minute
		m.ReAlertAfter = 10 * time.Minute
		m.TrackAttackLog = true
	}
	recs := genMonitorStream(7, 20_000)
	serial := NewMonitor(cfg)
	tune(serial)
	for i := range recs {
		serial.Add(&recs[i])
	}
	want := serial.AttackLog()
	if len(want) == 0 {
		t.Fatal("degenerate stream: no attacks logged")
	}
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sm := NewShardedMonitor(cfg, shards)
			for _, m := range sm.Monitors() {
				tune(m)
			}
			runFanOut(t, sm, recs)
			got := shardedAttackLog(sm)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("attack logs diverge: got %d entries, want %d\ngot  = %+v\nwant = %+v",
					len(got), len(want), got, want)
			}
		})
	}
}
