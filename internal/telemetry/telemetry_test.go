package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	c := NewCounter()
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}

	g := NewGauge()
	g.Set(3.5)
	g.Add(-1.5)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %g, want 2", got)
	}
	g.SetMax(1) // below current: no change
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge after SetMax(1) = %g, want 2", got)
	}
	g.SetMax(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge after SetMax(7) = %g, want 7", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 3, 3, 5, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	if want := 0.5 + 1.5 + 1.5 + 3 + 3 + 3 + 5 + 100; s.Sum != want {
		t.Fatalf("sum = %g, want %g", s.Sum, want)
	}
	wantCounts := []uint64{1, 2, 3, 1, 1} // (<=1, <=2, <=4, <=8, +Inf)
	for i, b := range s.Buckets {
		if b.Count != wantCounts[i] {
			t.Fatalf("bucket %d count = %d, want %d", i, b.Count, wantCounts[i])
		}
	}
	if !math.IsInf(s.Buckets[len(s.Buckets)-1].UpperBound, 1) {
		t.Fatal("last bucket should be +Inf")
	}
	// Quantiles interpolate within buckets and clamp at the last finite
	// bound for the +Inf bucket.
	if p := s.Quantile(0.5); p < 2 || p > 4 {
		t.Fatalf("p50 = %g, want within (2, 4]", p)
	}
	if p := s.Quantile(0.99); p != 8 {
		t.Fatalf("p99 = %g, want clamp to last finite bound 8", p)
	}
	if s.P50 != s.Quantile(0.50) || s.P95 != s.Quantile(0.95) || s.P99 != s.Quantile(0.99) {
		t.Fatal("snapshot quantile fields should match Quantile()")
	}
}

func TestHistogramDefaultBounds(t *testing.T) {
	h := NewHistogram()
	h.ObserveDuration(3 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("count = %d, want 1", s.Count)
	}
}

func TestCounterVecCardinalityCap(t *testing.T) {
	v := NewCounterVec("proto").SetMaxCardinality(2)
	v.With("ntp").Inc()
	v.With("dns").Inc()
	v.With("cldap").Inc()   // at cap: folds into _other
	v.With("chargen").Inc() // also _other
	v.With("ntp").Inc()     // existing child unaffected by cap

	s := v.Snapshot()
	if len(s.Values) != 3 { // ntp, dns, _other
		t.Fatalf("children = %d, want 3 (got %+v)", len(s.Values), s.Values)
	}
	byLabel := map[string]uint64{}
	for _, val := range s.Values {
		byLabel[val.LabelValues[0]] = val.Value
	}
	if byLabel["ntp"] != 2 || byLabel["dns"] != 1 || byLabel["_other"] != 2 {
		t.Fatalf("unexpected values: %+v", byLabel)
	}
	if v.Overflow() != 2 {
		t.Fatalf("overflow = %d, want 2", v.Overflow())
	}
}

func TestRegistryGetOrCreateAndSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ipfix_collector_messages_total", "messages")
	if c2 := r.Counter("ipfix_collector_messages_total", ""); c2 != c {
		t.Fatal("second Counter call should return the same object")
	}
	c.Add(5)
	r.Gauge("ipfix_collector_queue_depth", "").Set(12)
	h := NewHistogram()
	r.MustRegister("ipfix_exporter_backoff_seconds", "", h)
	h.Observe(0.03)
	vec := NewCounterVec("kind")
	r.MustRegister("chaos_proxy_faults_total", "", vec)
	vec.With("drop").Add(3)
	if err := r.register("flow_table_active", "", func() float64 { return 99 }); err != nil {
		t.Fatal(err)
	}

	s := r.Snapshot()
	if s.Counters["ipfix_collector_messages_total"] != 5 {
		t.Fatalf("snapshot counter = %d, want 5", s.Counters["ipfix_collector_messages_total"])
	}
	if s.Gauges["ipfix_collector_queue_depth"] != 12 {
		t.Fatalf("snapshot gauge = %g, want 12", s.Gauges["ipfix_collector_queue_depth"])
	}
	if s.Gauges["flow_table_active"] != 99 {
		t.Fatalf("snapshot gauge func = %g, want 99", s.Gauges["flow_table_active"])
	}
	if s.Histograms["ipfix_exporter_backoff_seconds"].Count != 1 {
		t.Fatal("snapshot histogram missing")
	}
	if got := s.Vectors["chaos_proxy_faults_total"].Values[0].Value; got != 3 {
		t.Fatalf("snapshot vec = %d, want 3", got)
	}
}

func TestRegistryRejectsBadNamesAndDuplicates(t *testing.T) {
	r := NewRegistry()
	if err := r.register("Bad-Name", "", NewCounter()); err == nil {
		t.Fatal("want error for non-snake-case name")
	}
	if err := r.register("ok_name_total", "", NewCounter()); err != nil {
		t.Fatal(err)
	}
	if err := r.register("ok_name_total", "", NewCounter()); err == nil {
		t.Fatal("want error for duplicate registration")
	}
	if err := r.register("weird_kind", "", struct{}{}); err == nil {
		t.Fatal("want error for unregisterable kind")
	}
}

// TestConcurrentUpdates hammers one counter, gauge, histogram, and vec
// from 16 goroutines while snapshots are taken concurrently, asserting
// the final totals are exact — the -race + consistency gate from the
// acceptance criteria.
func TestConcurrentUpdates(t *testing.T) {
	const (
		goroutines = 16
		perG       = 2000
	)
	r := NewRegistry()
	c := r.Counter("test_counter_total", "")
	g := r.Gauge("test_queue_depth_high_watermark", "")
	h := NewHistogram(0.001, 0.01, 0.1, 1)
	r.MustRegister("test_latency_seconds", "", h)
	v := NewCounterVec("kind")
	r.MustRegister("test_faults_total", "", v)

	stopSnap := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stopSnap:
				return
			default:
				s := r.Snapshot()
				// A mid-flight snapshot must stay internally coherent:
				// bucket sums never exceed the live total count.
				if hs, ok := s.Histograms["test_latency_seconds"]; ok {
					if hs.Count > goroutines*perG {
						panic("histogram snapshot overcounts")
					}
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			kind := []string{"drop", "dup", "reorder", "corrupt"}[id%4]
			for j := 0; j < perG; j++ {
				c.Inc()
				g.SetMax(float64(id*perG + j))
				h.Observe(float64(j%200) / 1000)
				v.With(kind).Inc()
			}
		}(i)
	}
	wg.Wait()
	close(stopSnap)
	snapWG.Wait()

	s := r.Snapshot()
	if got := s.Counters["test_counter_total"]; got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := s.Gauges["test_queue_depth_high_watermark"]; got != float64((goroutines-1)*perG+perG-1) {
		t.Fatalf("gauge high watermark = %g, want %d", got, (goroutines-1)*perG+perG-1)
	}
	hs := s.Histograms["test_latency_seconds"]
	if hs.Count != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", hs.Count, goroutines*perG)
	}
	var bucketSum uint64
	for _, b := range hs.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != hs.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, hs.Count)
	}
	var vecSum uint64
	for _, val := range s.Vectors["test_faults_total"].Values {
		vecSum += val.Value
	}
	if vecSum != goroutines*perG {
		t.Fatalf("vec sum = %d, want %d", vecSum, goroutines*perG)
	}
}

func TestFunnelHelpers(t *testing.T) {
	r := NewRegistry()
	r.Counter("funnel_exported_records_total", "").Add(100)
	r.Counter("funnel_collected_records_total", "").Add(90)
	r.Counter("funnel_classified_records_total", "").Add(40)
	pts := r.Snapshot().Funnel(
		"funnel_exported_records_total",
		"funnel_collected_records_total",
		"funnel_classified_records_total")
	if !Monotonic(pts) {
		t.Fatalf("funnel %v should be monotonic", pts)
	}
	r.Counter("funnel_collected_records_total", "").Add(50) // now 140 > 100
	pts = r.Snapshot().Funnel(
		"funnel_exported_records_total", "funnel_collected_records_total")
	if Monotonic(pts) {
		t.Fatalf("funnel %v should not be monotonic", pts)
	}
}

func TestDashboardRendersFrame(t *testing.T) {
	r := NewRegistry()
	r.Counter("demo_records_total", "").Add(7)
	r.Gauge("demo_queue_depth", "").Set(3)
	h := NewHistogram()
	r.MustRegister("demo_latency_seconds", "", h)
	h.Observe(0.02)
	vec := NewCounterVec("kind")
	r.MustRegister("demo_faults_total", "", vec)
	vec.With("drop").Inc()
	r.Counter("demo_batches_total", "").Add(2)
	r.Counter("demo_idle_total", "")

	var buf strings.Builder
	d := NewDashboard(r, &buf, time.Hour)
	d.Ratio("demo_batch_mean_records", "demo_records_total", "demo_batches_total")
	d.Ratio("demo_never_shown", "demo_records_total", "demo_idle_total")
	d.writeOnce()
	out := buf.String()
	if strings.Contains(out, "demo_never_shown") {
		t.Fatalf("dashboard printed a ratio over a zero counter:\n%s", out)
	}
	for _, want := range []string{
		"demo_records_total", "7",
		"demo_queue_depth",
		"demo_latency_seconds", "p95=",
		"demo_faults_total{kind=drop}",
		"demo_batch_mean_records", "3.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dashboard frame missing %q:\n%s", want, out)
		}
	}
}

func TestDashboardStartStop(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "").Inc()
	var mu sync.Mutex
	var buf strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	d := NewDashboard(r, w, 5*time.Millisecond)
	d.Start()
	time.Sleep(20 * time.Millisecond)
	d.Stop()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "x_total") {
		t.Fatalf("periodic dashboard produced no frames:\n%s", out)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
