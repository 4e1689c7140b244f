package main

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around a call
// into a layer. Start and End are nanoseconds since the tracer began;
// Parent is the ID of the span that caused it (0 for a root).
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Count    int64  `json:"count"`
}

// tracer appends spans to one preallocated in-memory buffer and only
// touches a file when the run has ended. It is used from the one
// goroutine that drives a pass; a nil tracer records nothing, which is
// how the untraced run pays nothing for it.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload,
		Start: int64(time.Since(t.t0))})
	return id
}

// end closes span id, recording how many records it covered.
func (t *tracer) end(id int32, count int64) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.Count = count
}

// mark returns the buffer position, so a phase can later total only
// the spans it recorded.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// spanTotals is the per-name accounting of a span set.
type spanTotals struct {
	// Total is the summed duration, Self the summed duration minus the
	// part of each span's interval its child spans cover.
	Total, Self time.Duration
	Spans       int
	Count       int64
}

// selfTimes totals spans by name. A span's self time is its duration
// minus the union of its children's intervals clipped to it, so
// overlapping children are not subtracted twice.
func selfTimes(spans []span) map[string]spanTotals {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]spanTotals)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		t := out[s.Name]
		t.Total += time.Duration(s.End - s.Start)
		t.Self += time.Duration(s.End - s.Start - covered)
		t.Spans++
		t.Count += s.Count
		out[s.Name] = t
	}
	return out
}

// meter measures what one phase cost the process: bytes allocated, CPU
// time consumed and GC pause time, from runtime.MemStats and rusage
// deltas, and — by polling a cheap runtime metric — how far the live
// heap rose above where the phase began.
type meter struct {
	ms0   runtime.MemStats
	cpu0  time.Duration
	stop  chan struct{}
	wg    sync.WaitGroup
	heap0 uint64
	// heapMax is written by the poller and read after wg.Wait.
	heapMax uint64
	// probe, when set, is polled alongside the heap (the collector's
	// queue depth); probeMax is its peak.
	probe    func() int
	probeMax int
}

// meterPoll is how often the meter samples heap size and the probe.
const meterPoll = 10 * time.Millisecond

const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

func readHeapObjects(sample []metrics.Sample) uint64 {
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// startMeter begins a phase. probe may be nil.
func startMeter(probe func() int) *meter {
	m := &meter{stop: make(chan struct{}), probe: probe}
	sample := []metrics.Sample{{Name: heapObjectsMetric}}
	m.heap0 = readHeapObjects(sample)
	m.heapMax = m.heap0
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = processCPU()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(meterPoll)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				if h := readHeapObjects(sample); h > m.heapMax {
					m.heapMax = h
				}
				if m.probe != nil {
					if d := m.probe(); d > m.probeMax {
						m.probeMax = d
					}
				}
			}
		}
	}()
	return m
}

// phaseCost is a finished meter reading.
type phaseCost struct {
	AllocBytes   uint64
	CPU          time.Duration
	GCPause      time.Duration
	HeapGrowthMB float64
	ProbeMax     int
}

// finish stops the poller, waits for it, and reads the deltas.
func (m *meter) finish() phaseCost {
	close(m.stop)
	m.wg.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return phaseCost{
		AllocBytes:   ms.TotalAlloc - m.ms0.TotalAlloc,
		CPU:          processCPU() - m.cpu0,
		GCPause:      time.Duration(ms.PauseTotalNs - m.ms0.PauseTotalNs),
		HeapGrowthMB: float64(m.heapMax-m.heap0) / (1 << 20),
		ProbeMax:     m.probeMax,
	}
}

// addTo reports the phase as the bench.* per-layer metrics, per record
// where that is the meaningful base.
func (c phaseCost) addTo(res *result, records uint64) {
	n := float64(max(records, 1))
	res.add("bench.alloc_b_per_rec", float64(c.AllocBytes)/n)
	res.add("bench.cpu_ns_per_rec", float64(c.CPU)/n)
	res.add("bench.gc_pause_ms", float64(c.GCPause)/1e6)
	res.add("bench.heap_growth_mb_max", c.HeapGrowthMB)
}
