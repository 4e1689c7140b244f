package classify

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/pipe"
)

// feedAttack pushes an attack of `sources` amplifiers totalling `gbps`
// into the monitor within one minute and returns any alerts raised.
func feedAttack(m *Monitor, dst string, sources int, gbps float64, at time.Time) []*Alert {
	bytesPerSource := uint64(gbps * 1e9 / 8 * 60 / float64(sources))
	var alerts []*Alert
	for i := 0; i < sources; i++ {
		src := fmt.Sprintf("21.%d.%d.%d", i>>16&0xff, i>>8&0xff, i&0xff)
		r := ntpRec(src, dst, 486, bytesPerSource/486, at)
		if a := m.Add(&r); a != nil {
			alerts = append(alerts, a)
		}
	}
	return alerts
}

func TestMonitorAlertsOnce(t *testing.T) {
	m := NewMonitor(Config{})
	alerts := feedAttack(m, "203.0.113.30", 100, 3, t0)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want exactly 1", len(alerts))
	}
	a := alerts[0]
	if a.Victim.String() != "203.0.113.30" {
		t.Errorf("victim = %v", a.Victim)
	}
	if a.Sources <= 10 {
		t.Errorf("sources = %d", a.Sources)
	}
	if a.Gbps < 0.2 {
		t.Errorf("rate = %.2f Gbps", a.Gbps)
	}
	if !strings.Contains(a.String(), "ALERT") {
		t.Errorf("alert string = %q", a.String())
	}
	// Continued traffic in the next minutes stays silent (re-alert
	// suppression).
	if more := feedAttack(m, "203.0.113.30", 100, 3, t0.Add(time.Minute)); len(more) != 0 {
		t.Errorf("re-alerted %d times within suppression window", len(more))
	}
}

func TestMonitorReAlertsAfterWindow(t *testing.T) {
	m := NewMonitor(Config{})
	m.ReAlertAfter = 5 * time.Minute
	if len(feedAttack(m, "203.0.113.30", 100, 3, t0)) != 1 {
		t.Fatal("first alert missing")
	}
	if len(feedAttack(m, "203.0.113.30", 100, 3, t0.Add(6*time.Minute))) != 1 {
		t.Error("no re-alert after the suppression window")
	}
}

func TestMonitorIgnoresBelowThreshold(t *testing.T) {
	m := NewMonitor(Config{})
	// High rate, too few sources.
	if alerts := feedAttack(m, "203.0.113.31", 5, 3, t0); len(alerts) != 0 {
		t.Errorf("alerted on %d-source traffic", 5)
	}
	// Many sources, low rate.
	if alerts := feedAttack(m, "203.0.113.32", 100, 0.1, t0); len(alerts) != 0 {
		t.Error("alerted on low-rate traffic")
	}
	// Benign NTP.
	r := ntpRec("21.0.0.1", "203.0.113.33", 76, 1e9, t0)
	if a := m.Add(&r); a != nil {
		t.Error("alerted on small-packet NTP")
	}
}

func TestMonitorEviction(t *testing.T) {
	m := NewMonitor(Config{})
	m.Retention = 2 * time.Minute
	feedAttack(m, "203.0.113.34", 50, 2, t0)
	if m.Health().ActiveMinutes == 0 {
		t.Fatal("no state tracked")
	}
	// Advancing time far beyond retention evicts the old minutes.
	feedAttack(m, "203.0.113.35", 50, 2, t0.Add(30*time.Minute))
	if m.Health().ActiveMinutes != 1 {
		t.Errorf("active minutes = %d, want only the fresh one", m.Health().ActiveMinutes)
	}
}

func TestMonitorSampledRecords(t *testing.T) {
	m := NewMonitor(Config{})
	// IXP-style sampled records must be scaled before thresholding.
	alerts := 0
	for i := 0; i < 20; i++ {
		r := ntpRec(fmt.Sprintf("22.0.0.%d", i+1), "203.0.113.36", 486, 5000, t0)
		r.SamplingRate = 10000
		if a := m.Add(&r); a != nil {
			alerts++
		}
	}
	if alerts != 1 {
		t.Errorf("alerts = %d, want 1 from scaled counters", alerts)
	}
}

func TestMonitorVictimTableCap(t *testing.T) {
	m := NewMonitor(Config{})
	m.MaxMinutes = 10
	// Adversarial victim churn: 50 distinct destinations in one minute.
	for i := 0; i < 50; i++ {
		dst := fmt.Sprintf("203.0.113.%d", i+1)
		r := ntpRec("21.0.0.1", dst, 486, 1000, t0)
		m.Add(&r)
	}
	if m.Health().ActiveMinutes != 10 {
		t.Errorf("active minutes = %d, want capped at 10", m.Health().ActiveMinutes)
	}
	st := m.Stats()
	if st.RejectedRecords != 40 {
		t.Errorf("rejected = %d, want 40", st.RejectedRecords)
	}
	h := m.Health()
	if !h.Saturated {
		t.Error("health not saturated at cap")
	}
	if !strings.Contains(h.String(), "degraded") {
		t.Errorf("health string = %q, want degraded", h.String())
	}
	// Established victims keep aggregating and can still alert.
	if alerts := feedAttack(m, "203.0.113.1", 100, 3, t0); len(alerts) != 1 {
		t.Errorf("established victim raised %d alerts under saturation, want 1", len(alerts))
	}
	// Retention frees capacity again: a fresh minute far in the future
	// evicts everything and new victims are tracked.
	if alerts := feedAttack(m, "203.0.113.99", 100, 3, t0.Add(time.Hour)); len(alerts) != 1 {
		t.Errorf("post-eviction victim raised %d alerts, want 1", len(alerts))
	}
	if m.Stats().EvictedBins == 0 {
		t.Error("no evictions accounted")
	}
}

func TestMonitorSourceSetCap(t *testing.T) {
	m := NewMonitor(Config{})
	m.MaxSourcesPerBin = 20
	alerts := feedAttack(m, "203.0.113.40", 200, 3, t0)
	// The bin still crosses both thresholds (20 tracked sources > 10)
	// even though 180 sources went untracked.
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	if alerts[0].Sources != 20 {
		t.Errorf("alert sources = %d, want capped 20", alerts[0].Sources)
	}
	if st := m.Stats(); st.SourceOverflows != 180 {
		t.Errorf("source overflows = %d, want 180", st.SourceOverflows)
	}
}

func TestMonitorStatsCounts(t *testing.T) {
	m := NewMonitor(Config{})
	feedAttack(m, "203.0.113.50", 100, 3, t0)
	benign := ntpRec("21.0.0.1", "203.0.113.50", 76, 1000, t0)
	m.Add(&benign)
	st := m.Stats()
	if st.Records != 101 || st.Matched != 100 {
		t.Errorf("records/matched = %d/%d, want 101/100", st.Records, st.Matched)
	}
	if st.Alerts != 1 {
		t.Errorf("alerts = %d, want 1", st.Alerts)
	}
	if h := m.Health(); h.Saturated || !strings.Contains(h.String(), "healthy") {
		t.Errorf("health = %q, want healthy", h.String())
	}
}

func BenchmarkMonitorAdd(b *testing.B) {
	m := NewMonitor(Config{})
	r := ntpRec("21.0.0.1", "203.0.113.30", 486, 1000, t0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Add(&r)
	}
}

// BenchmarkMonitorAddCols drives the sharded monitor's columnar path
// the way a replay does: 1024-row slabs of four victims interleaved,
// each hit by 300 amplifiers twice a minute, over minutes that keep
// advancing — so every minute opens bins, spills their source sets
// past the inline dozen, crosses the thresholds, and evicts the bins
// that fell past the retention horizon. One op is one slab.
func BenchmarkMonitorAddCols(b *testing.B) {
	const (
		victims   = 4
		amps      = 300
		perMinute = 2 * victims * amps
		minutes   = 32
		slab      = 1024
	)
	var all flow.Columns
	for mi := 0; mi < minutes; mi++ {
		at := t0.Add(time.Duration(mi) * time.Minute)
		for k := 0; k < perMinute; k++ {
			a := k / victims % amps
			src := fmt.Sprintf("21.0.%d.%d", a>>8, a&0xff)
			dst := fmt.Sprintf("203.0.113.%d", 30+k%victims)
			r := ntpRec(src, dst, 486, 2000, at.Add(time.Duration(k*60/perMinute)*time.Second))
			all.AppendRecord(&r)
		}
	}
	var slabs []*flow.Columns
	for lo := 0; lo < all.Len(); lo += slab {
		c := new(flow.Columns)
		c.AppendRange(&all, lo, min(lo+slab, all.Len()))
		slabs = append(slabs, c)
	}
	shard := NewShardedMonitor(Config{}, 1).shards[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(slabs)
		if k == 0 && i > 0 {
			// Next pass: the same traffic, minutes later.
			b.StopTimer()
			for _, c := range slabs {
				for j := range c.StartSec {
					c.StartSec[j] += minutes * 60
				}
			}
			shard.alerts = shard.alerts[:0]
			b.StartTimer()
		}
		if err := shard.Process(&pipe.Batch{Cols: slabs[k]}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*slab), "ns/rec")
}
