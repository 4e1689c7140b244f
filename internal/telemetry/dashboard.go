package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Dashboard periodically renders a compact plain-text view of a
// registry — the headless-run counterpart of the /metrics endpoint,
// meant for log files and terminals where no scraper is watching.
type Dashboard struct {
	reg      *Registry
	w        io.Writer
	interval time.Duration

	mu sync.Mutex
	//bsvet:guards mu
	stop chan struct{}
	//bsvet:guards mu
	done chan struct{}
	last map[string]uint64 // counter values at the previous render, for rates
	prev time.Time
	//bsvet:guards mu
	ratios []ratio
}

// ratio is a derived dashboard line: one counter's value over
// another's.
type ratio struct{ name, num, den string }

// NewDashboard returns a dashboard rendering reg to w every interval
// (default 10 s). Call Start to begin and Stop to end.
func NewDashboard(reg *Registry, w io.Writer, interval time.Duration) *Dashboard {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	return &Dashboard{reg: reg, w: w, interval: interval, last: make(map[string]uint64)}
}

// Ratio adds a derived line to every frame: counter num divided by
// counter den (registered names), printed after the vectors once den is
// non-zero — a mean such as records per routed batch, which neither
// counter shows alone.
func (d *Dashboard) Ratio(name, num, den string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ratios = append(d.ratios, ratio{name, num, den})
}

// Start launches the periodic renderer.
func (d *Dashboard) Start() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stop != nil {
		return
	}
	d.stop = make(chan struct{})
	d.done = make(chan struct{})
	d.prev = time.Now()
	go d.run(d.stop, d.done)
}

func (d *Dashboard) run(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(d.interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			d.writeOnce()
		}
	}
}

// Stop halts the renderer, emitting one final frame.
func (d *Dashboard) Stop() {
	d.mu.Lock()
	stop, done := d.stop, d.done
	d.stop, d.done = nil, nil
	d.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
	d.writeOnce()
}

// writeOnce renders one dashboard frame: non-zero counters with
// per-interval rates, gauges, histogram quantiles, labeled counters,
// and the derived ratios.
func (d *Dashboard) writeOnce() {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := time.Now()
	elapsed := now.Sub(d.prev).Seconds()
	d.prev = now
	s := d.reg.Snapshot()

	fmt.Fprintf(d.w, "-- telemetry %s --\n", now.Format("15:04:05"))
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := s.Counters[name]
		if v == 0 {
			continue
		}
		line := fmt.Sprintf("  %-52s %12d", name, v)
		if prev, ok := d.last[name]; ok && elapsed > 0 && v >= prev {
			line += fmt.Sprintf("  (%.1f/s)", float64(v-prev)/elapsed)
		}
		fmt.Fprintln(d.w, line)
		d.last[name] = v
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(d.w, "  %-52s %12g\n", name, s.Gauges[name])
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(d.w, "  %-52s n=%d p50=%.4g p95=%.4g p99=%.4g\n",
			name, h.Count, h.P50, h.P95, h.P99)
	}
	names = names[:0]
	for name := range s.Vectors {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		vec := s.Vectors[name]
		for _, v := range vec.Values {
			if v.Value == 0 {
				continue
			}
			fmt.Fprintf(d.w, "  %-52s %12d\n",
				fmt.Sprintf("%s{%s}", name, labelString(vec.Labels, v.LabelValues)), v.Value)
		}
	}
	for _, r := range d.ratios {
		if den := s.Counters[r.den]; den != 0 {
			fmt.Fprintf(d.w, "  %-52s %12.1f\n", r.name, float64(s.Counters[r.num])/float64(den))
		}
	}
}

func labelString(labels, values []string) string {
	out := ""
	for i := range labels {
		if i > 0 {
			out += ","
		}
		out += labels[i] + "=" + values[i]
	}
	return out
}
