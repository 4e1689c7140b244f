// Package eventlog is booterscope's wide-event flight recorder: a
// lock-free bounded ring of structured events that every subsystem
// (ipfix, pipe, classify, service, flowstore, bgp) emits into. Where
// the telemetry registry answers "how much" and the span tracer
// answers "how long", the event log answers "what happened, in what
// order, to which attack": each event carries its component, a
// component-prefixed kind, an optional attack ID linking it to one
// attack's lifecycle, free-form key=value attributes, and both wall
// and monotonic timestamps.
//
// The ring is a black box, not a database: it retains the most recent
// events (older ones are overwritten, with the overwrite count
// exported as telemetry) and is dumped atomically to disk — CRC
// framed, rename-committed, exactly like the service daemon's
// checkpoints — when an incident trigger fires (SLO burn breach, shed
// escalation, drain, checkpoint failure). The /events and /attacks
// debug endpoints read the live ring; `ddoswatch -incident` reads a
// dump; both reconstruct identical attack timelines (timeline.go).
//
// Emit is safe from any goroutine and nil-safe: a nil *Log (the
// default when no recorder is active) makes Emit a two-instruction
// no-op, so instrumented hot paths cost nothing when recording is
// off. Writers never block: a slot is claimed with one atomic add and
// published with one atomic pointer store.
package eventlog

import (
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"booterscope/internal/telemetry"
)

// DefaultRingSize is the event capacity of a Log built by New with
// size <= 0. At ~100 bytes per event the default ring holds the last
// few thousand transitions in well under a megabyte.
const DefaultRingSize = 4096

// Attr is one key=value attribute on an event.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// A builds a string attribute.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// AInt builds an integer attribute.
func AInt(key string, v int64) Attr { return Attr{Key: key, Value: strconv.FormatInt(v, 10)} }

// AUint builds an unsigned integer attribute.
func AUint(key string, v uint64) Attr { return Attr{Key: key, Value: strconv.FormatUint(v, 10)} }

// AFloat builds a float attribute.
func AFloat(key string, v float64) Attr {
	return Attr{Key: key, Value: strconv.FormatFloat(v, 'g', -1, 64)}
}

// Event is one wide event in the flight recorder.
type Event struct {
	// Seq is the event's global sequence number in its Log, dense from
	// zero — a gap at the front of a snapshot means the ring wrapped.
	Seq uint64 `json:"seq"`
	// WallNanos is wall-clock time (unix nanoseconds) for human
	// correlation with external logs.
	WallNanos int64 `json:"wall_nanos"`
	// MonoNanos is monotonic time (nanoseconds since the Log was
	// created). All intervals — detection latency, time-to-mitigate —
	// are computed from MonoNanos so a wall-clock step cannot skew
	// them.
	MonoNanos int64 `json:"mono_nanos"`
	// Component names the emitting subsystem (classify, service, ...).
	Component string `json:"component"`
	// Kind is the component-prefixed snake_case event name
	// (classify_alert_raised) — the same naming contract metric names
	// follow, enforced by the bsvet telemetry analyzer.
	Kind string `json:"kind"`
	// AttackID links the event to one attack's lifecycle (0 = none).
	AttackID uint64 `json:"attack_id,omitempty"`
	Attrs    []Attr `json:"attrs,omitempty"`
}

// attr returns the value of the named attribute ("" when absent).
func (e *Event) attr(key string) string {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Log is the bounded event ring. Construct with New; the zero value
// is not usable (but a nil *Log is: every method no-ops).
type Log struct {
	slots []atomic.Pointer[Event]
	mask  uint64
	seq   atomic.Uint64
	base  time.Time
	m     *logMetrics
}

// logMetrics are the recorder's own accounting atomics; Log.
// RegisterTelemetry attaches them under the eventlog_* names.
type logMetrics struct {
	emitted      *telemetry.CounterVec
	dumps        *telemetry.Counter
	dumpFailures *telemetry.Counter
	dumpBytes    *telemetry.Gauge
}

// New returns an empty recorder holding the most recent events. size
// is rounded up to a power of two; <= 0 selects DefaultRingSize.
func New(size int) *Log {
	if size <= 0 {
		size = DefaultRingSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &Log{
		slots: make([]atomic.Pointer[Event], n),
		mask:  uint64(n - 1),
		base:  time.Now(),
		m: &logMetrics{
			emitted:      telemetry.NewCounterVec("component").SetMaxCardinality(16),
			dumps:        telemetry.NewCounter(),
			dumpFailures: telemetry.NewCounter(),
			dumpBytes:    telemetry.NewGauge(),
		},
	}
}

// active is the process-wide recorder components emit into by default.
// Subsystems without a configuration seam of their own (pipe,
// flowstore, ipfix, bgp) always use it; classify and service accept an
// explicit Log and fall back to it.
var active atomic.Pointer[Log]

// SetActive installs l as the process-wide recorder (nil disables
// recording again).
func SetActive(l *Log) { active.Store(l) }

// Active returns the process-wide recorder, or nil when recording is
// off. Emit is nil-safe, so call sites chain without checking:
// eventlog.Active().Emit(...).
func Active() *Log { return active.Load() }

// Emit records one event. Safe from any goroutine, never blocks, and
// a nil receiver is a no-op — emitting into a disabled recorder costs
// one pointer compare.
func (l *Log) Emit(component, kind string, attackID uint64, attrs ...Attr) {
	if l == nil {
		return
	}
	now := time.Now()
	seq := l.seq.Add(1) - 1
	ev := &Event{
		Seq:       seq,
		WallNanos: now.UnixNano(),
		MonoNanos: now.Sub(l.base).Nanoseconds(),
		Component: component,
		Kind:      kind,
		AttackID:  attackID,
		Attrs:     attrs,
	}
	l.slots[seq&l.mask].Store(ev)
	l.m.emitted.With(component).Inc()
}

// Snapshot returns the retained events in sequence order. Events are
// immutable once published, so a snapshot taken during concurrent
// emission is a consistent set (each slot is the event last published
// to it), merely fuzzy about which lap of the ring the newest slots
// show.
func (l *Log) Snapshot() []Event {
	if l == nil {
		return nil
	}
	out := make([]Event, 0, len(l.slots))
	for i := range l.slots {
		if ev := l.slots[i].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Len reports how many events the ring currently retains.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	n := l.seq.Load()
	if n > uint64(len(l.slots)) {
		return len(l.slots)
	}
	return int(n)
}

// Cap reports the ring capacity.
//
//bsvet:allow deadcode oracle: TestMonitorRunFrozen checks the ring did not wrap
func (l *Log) Cap() int {
	if l == nil {
		return 0
	}
	return len(l.slots)
}

// Emitted reports how many events have ever been emitted (including
// ones the ring has since overwritten).
//
//bsvet:allow deadcode oracle: TestMonitorRunFrozen checks the ring did not wrap
func (l *Log) Emitted() uint64 {
	if l == nil {
		return 0
	}
	return l.seq.Load()
}

// overwritten reports how many events the ring has dropped by
// wrapping.
func (l *Log) overwritten() uint64 {
	if l == nil {
		return 0
	}
	n := l.seq.Load()
	if n <= uint64(len(l.slots)) {
		return 0
	}
	return n - uint64(len(l.slots))
}

// RegisterTelemetry attaches the recorder's accounting to r under the
// eventlog_* names.
func (l *Log) RegisterTelemetry(r *telemetry.Registry) {
	r.MustRegister("eventlog_events_total", "events emitted into the flight recorder by component", l.m.emitted)
	r.MustRegister("eventlog_ring_events", "events currently retained in the ring", func() float64 { return float64(l.Len()) })
	r.MustRegister("eventlog_ring_capacity", "event capacity of the ring", func() float64 { return float64(l.Cap()) })
	r.MustRegister("eventlog_ring_overwritten_events", "events dropped by ring wrap-around", func() float64 { return float64(l.overwritten()) })
	r.MustRegister("eventlog_dumps_total", "incident dumps published", l.m.dumps)
	r.MustRegister("eventlog_dump_failures_total", "incident dump attempts that failed (previous dump kept)", l.m.dumpFailures)
	r.MustRegister("eventlog_dump_bytes", "size of the last published incident dump", l.m.dumpBytes)
}
