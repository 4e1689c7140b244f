// Package telemetry is booterscope's dependency-free metrics layer: a
// registry of atomic counters, gauges, fixed-bucket histograms, and
// labeled counter vectors with a bounded label cardinality.
//
// The paper's analysis hinges on precise accounting at every pipeline
// stage — flows exported → collected → classified → attributed — so
// every subsystem registers its counters here under one naming scheme
// (component_subsystem_name_unit) and one scrape shows the whole
// funnel. Metric objects are cheap atomics created standalone; a
// component's Stats() struct stays a thin view over the same objects it
// registers, so accounting invariants asserted by tests hold whether or
// not a registry is attached.
//
// The registry is exposed three ways: Snapshot() for tests and the
// reproduce harness, Prometheus-text/JSON HTTP handlers (see
// prometheus.go and debugserver), and a periodic plain-text dashboard
// for headless runs (dashboard.go).
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a zeroed counter.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic float64 value that can move in both directions.
type Gauge struct {
	bits atomic.Uint64
}

// NewGauge returns a zeroed gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + d
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// SetMax raises the gauge to v if v exceeds the current value — a
// high-watermark (queue depth peaks, burst sizes).
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value reports the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// defBuckets are the default histogram bucket upper bounds, tuned for
// durations in seconds from 100 µs to 10 s.
var defBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with lock-free observation.
// Bucket bounds are upper bounds in ascending order; values above the
// last bound land in an implicit +Inf bucket.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// NewHistogram returns a histogram over the given ascending bucket
// bounds (defBuckets when none are given).
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = defBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %v", bounds[i]))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Bucket is one histogram bucket in a snapshot: the count of
// observations at or below UpperBound and above the previous bound.
type Bucket struct {
	UpperBound float64 // math.Inf(1) for the overflow bucket
	Count      uint64
}

// bucketJSON is the wire form of a Bucket: +Inf is not representable in
// JSON numbers, so the bound travels as a string.
type bucketJSON struct {
	Le    string `json:"le"`
	Count uint64 `json:"count"`
}

// MarshalJSON encodes the bucket with its bound as a string ("+Inf" for
// the overflow bucket).
func (b Bucket) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.UpperBound, 1) {
		le = strconv.FormatFloat(b.UpperBound, 'g', -1, 64)
	}
	return json.Marshal(bucketJSON{Le: le, Count: b.Count})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var bj bucketJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		return err
	}
	if bj.Le == "+Inf" {
		b.UpperBound = math.Inf(1)
	} else {
		v, err := strconv.ParseFloat(bj.Le, 64)
		if err != nil {
			return err
		}
		b.UpperBound = v
	}
	b.Count = bj.Count
	return nil
}

// HistogramSnapshot is a point-in-time view of a histogram with
// estimated quantiles.
type HistogramSnapshot struct {
	Count   uint64
	Sum     float64
	Buckets []Bucket
	P50     float64
	P95     float64
	P99     float64
}

// Snapshot captures the histogram. Per-bucket counts are read without a
// global lock, so a snapshot taken during concurrent observation is
// approximate at the margin of in-flight updates but never torn per
// bucket.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Sum:     math.Float64frombits(h.sumBits.Load()),
		Buckets: make([]Bucket, len(h.counts)),
	}
	for i := range h.counts {
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		c := h.counts[i].Load()
		s.Buckets[i] = Bucket{UpperBound: ub, Count: c}
		s.Count += c
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// Quantile estimates the q-quantile (0..1) by linear interpolation
// inside the containing bucket. Values in the +Inf bucket report the
// last finite bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var seen float64
	lower := 0.0
	for i, b := range s.Buckets {
		upper := b.UpperBound
		if math.IsInf(upper, 1) {
			// Cannot interpolate into +Inf: report the last finite bound.
			if i > 0 {
				return s.Buckets[i-1].UpperBound
			}
			return 0
		}
		if seen+float64(b.Count) >= rank {
			if b.Count == 0 {
				return upper
			}
			return lower + (upper-lower)*(rank-seen)/float64(b.Count)
		}
		seen += float64(b.Count)
		lower = upper
	}
	return lower
}

// defaultMaxCardinality bounds the distinct label combinations a
// CounterVec tracks before folding new combinations into a shared
// overflow child (all label values "_other"). Unbounded label values —
// victim addresses, domains — would otherwise let an adversarial
// workload exhaust memory through its own metrics.
const defaultMaxCardinality = 64

// overflowLabel is the label value of the fold-in child at the cap.
const overflowLabel = "_other"

// CounterVec is a counter partitioned by label values, with a bounded
// label cardinality.
type CounterVec struct {
	labels  []string
	maxCard int

	mu sync.RWMutex
	//bsvet:guards mu
	children map[string]*vecChild
	overflow atomic.Uint64
}

type vecChild struct {
	values []string
	c      Counter
}

// NewCounterVec returns a vector over the given label names with the
// default cardinality cap.
func NewCounterVec(labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("telemetry: CounterVec needs at least one label")
	}
	return &CounterVec{
		labels:   labels,
		maxCard:  defaultMaxCardinality,
		children: make(map[string]*vecChild),
	}
}

// SetMaxCardinality adjusts the cap (before first use; <= 0 keeps the
// default).
func (v *CounterVec) SetMaxCardinality(n int) *CounterVec {
	if n > 0 {
		v.maxCard = n
	}
	return v
}

// With returns the counter for the given label values, creating it on
// first use. At the cardinality cap new combinations share one overflow
// child whose label values are all "_other"; the fold-ins are counted
// in Overflow.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("telemetry: CounterVec expects %d label values, got %d", len(v.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	v.mu.RLock()
	ch, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return &ch.c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if ch, ok = v.children[key]; ok {
		return &ch.c
	}
	if len(v.children) >= v.maxCard {
		v.overflow.Add(1)
		okey := strings.Repeat(overflowLabel+"\x00", len(v.labels)-1) + overflowLabel
		if ch, ok = v.children[okey]; !ok {
			vals := make([]string, len(v.labels))
			for i := range vals {
				vals[i] = overflowLabel
			}
			ch = &vecChild{values: vals}
			v.children[okey] = ch
		}
		return &ch.c
	}
	vals := make([]string, len(values))
	copy(vals, values)
	ch = &vecChild{values: vals}
	v.children[key] = ch
	return &ch.c
}

// Overflow reports how many distinct label combinations were folded
// into the overflow child at the cardinality cap.
//
//bsvet:allow deadcode oracle: TestCounterVecCardinalityCap checks the label cap folds overflow
func (v *CounterVec) Overflow() uint64 { return v.overflow.Load() }

// vecValue is one labeled counter value in a snapshot.
type vecValue struct {
	LabelValues []string
	Value       uint64
}

// vecSnapshot is a point-in-time view of a CounterVec.
type vecSnapshot struct {
	Labels   []string
	Values   []vecValue
	Overflow uint64
}

// Snapshot captures the vector, values sorted by label tuple.
//
//bsvet:allow deadcode oracle: TestMonitorRunFrozen freezes the detection counts
func (v *CounterVec) Snapshot() vecSnapshot {
	v.mu.RLock()
	defer v.mu.RUnlock()
	s := vecSnapshot{Labels: v.labels, Overflow: v.overflow.Load()}
	for _, ch := range v.children {
		s.Values = append(s.Values, vecValue{LabelValues: ch.values, Value: ch.c.Value()})
	}
	sort.Slice(s.Values, func(i, j int) bool {
		return strings.Join(s.Values[i].LabelValues, "\x00") < strings.Join(s.Values[j].LabelValues, "\x00")
	})
	return s
}

// metricNameRE enforces the component_subsystem_name_unit scheme:
// lower-case snake case, leading letter.
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

type entry struct {
	name, help string
	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
	vec        *CounterVec
	gaugeFunc  func() float64
}

// Registry is a named collection of metrics. The zero value is not
// usable; construct with NewRegistry or use Default.
type Registry struct {
	mu sync.RWMutex
	//bsvet:guards mu
	entries map[string]*entry
	//bsvet:guards mu
	order []string // registration order, for stable dashboards
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry shared by the cmd binaries
// and the debug server.
func Default() *Registry {
	defaultOnce.Do(func() { defaultReg = NewRegistry() })
	return defaultReg
}

func (r *Registry) add(name, help string, e *entry) error {
	if !metricNameRE.MatchString(name) {
		return fmt.Errorf("telemetry: metric name %q does not match component_subsystem_name_unit (%s)", name, metricNameRE)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		return fmt.Errorf("telemetry: metric %q already registered", name)
	}
	e.name, e.help = name, help
	r.entries[name] = e
	r.order = append(r.order, name)
	return nil
}

// register attaches a pre-built metric (a *Counter, *Gauge, *Histogram,
// or *CounterVec) under name. Components own their metric objects —
// their Stats() structs read the same atomics — and attach them here so
// one scrape covers every subsystem. Registering a name twice or an
// unknown metric kind is an error.
func (r *Registry) register(name, help string, m any) error {
	e := &entry{}
	switch m := m.(type) {
	case *Counter:
		e.counter = m
	case *Gauge:
		e.gauge = m
	case *Histogram:
		e.hist = m
	case *CounterVec:
		e.vec = m
	case func() float64:
		e.gaugeFunc = m
	default:
		return fmt.Errorf("telemetry: cannot register %T", m)
	}
	return r.add(name, help, e)
}

// MustRegister is Register, panicking on error — for wiring done once
// at startup where a duplicate name is a programming bug.
func (r *Registry) MustRegister(name, help string, m any) {
	if err := r.register(name, help, m); err != nil {
		panic(err)
	}
}

// lookup returns the entry for name, or nil.
func (r *Registry) lookup(name string) *entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.entries[name]
}

// Counter returns the counter registered under name, creating and
// registering it on first use. It panics if name holds another kind.
func (r *Registry) Counter(name, help string) *Counter {
	if e := r.lookup(name); e != nil {
		if e.counter == nil {
			panic(fmt.Sprintf("telemetry: %q is not a counter", name))
		}
		return e.counter
	}
	c := NewCounter()
	if err := r.register(name, help, c); err != nil {
		// Lost a registration race: return the winner.
		if e := r.lookup(name); e != nil && e.counter != nil {
			return e.counter
		}
		panic(err)
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
//
//bsvet:allow deadcode oracle: TestMonitorRunFrozen reads the occupancy gauge
func (r *Registry) Gauge(name, help string) *Gauge {
	if e := r.lookup(name); e != nil {
		if e.gauge == nil {
			panic(fmt.Sprintf("telemetry: %q is not a gauge", name))
		}
		return e.gauge
	}
	g := NewGauge()
	if err := r.register(name, help, g); err != nil {
		if e := r.lookup(name); e != nil && e.gauge != nil {
			return e.gauge
		}
		panic(err)
	}
	return g
}

// Snapshot is a stable point-in-time view of every registered metric,
// usable from tests and the reproduce harness without HTTP.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Vectors    map[string]vecSnapshot       `json:"vectors"`
}

// Snapshot captures every registered metric.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
		Vectors:    make(map[string]vecSnapshot),
	}
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	for _, e := range entries {
		switch {
		case e.counter != nil:
			s.Counters[e.name] = e.counter.Value()
		case e.gauge != nil:
			s.Gauges[e.name] = e.gauge.Value()
		case e.gaugeFunc != nil:
			s.Gauges[e.name] = e.gaugeFunc()
		case e.hist != nil:
			s.Histograms[e.name] = e.hist.Snapshot()
		case e.vec != nil:
			s.Vectors[e.name] = e.vec.Snapshot()
		}
	}
	return s
}

// names returns the registered metric names sorted alphabetically.
func (r *Registry) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	sort.Strings(out)
	return out
}
