// Package takedown implements the study's Section 5.2 analysis: the
// effect of the FBI's December 19 2018 seizure of 15 booter domains on
// DDoS traffic, measured as one-tailed Welch tests and reduction ratios
// over ±30/±40-day windows around the event.
//
// Two perspectives are computed, mirroring the paper's figures:
//
//   - Figure 4: daily packet counts toward DDoS reflectors (UDP dst
//     port 123/53/11211) per vantage point — where the takedown shows
//     significant reductions;
//   - Figure 5: systems under NTP attack per hour, using the
//     conservative classification — where no significant reduction
//     appears.
//
// Analyze computes both figures and the Welch/Mann-Whitney robustness
// ablation in one pass over a vantage point's records, on par
// workers (Run): each worker feeds its batches to its own trigger and
// attack-counter stages inline, and the workers' results merge exactly
// — the sums are integer-valued and the counter's merge fuses shared
// (victim, minute) bins — so any parallelism, and any split of the
// records among the workers, yields byte-identical output to the serial
// pass. A replayed archive is split by whole days, so the workers' bins
// are disjoint and the merges only insert.
package takedown

import (
	"fmt"
	"time"

	"booterscope/internal/amplify"
	"booterscope/internal/classify"
	"booterscope/internal/flow"
	"booterscope/internal/packet"
	"booterscope/internal/pipe"
	"booterscope/internal/timeseries"
	"booterscope/internal/trafficgen"
)

// Event describes the takedown under study.
type Event struct {
	// Date is the seizure date.
	Date time.Time
	// SeizedDomains is the number of booter domains seized (15).
	SeizedDomains int
}

// FBITakedown is the December 2018 operation.
var FBITakedown = Event{
	Date:          time.Date(2018, 12, 19, 0, 0, 0, 0, time.UTC),
	SeizedDomains: 15,
}

// Figure4Panel is one vantage/vector panel of Figure 4.
type Figure4Panel struct {
	Vantage trafficgen.Kind
	Vector  amplify.Vector
	// Daily is the day-by-day packet count toward the vector's
	// reflectors.
	Daily []timeseries.Point
	// Metrics carries wt30/wt40/red30/red40.
	Metrics timeseries.TakedownMetrics
}

// String summarizes the panel like the paper's annotations.
func (p Figure4Panel) String() string {
	return fmt.Sprintf("packets %v dst port, %v perspective: %v",
		p.Vector, p.Vantage, p.Metrics)
}

// ReflectorVectors are the amplification vectors analyzed in Figure 4.
var ReflectorVectors = []amplify.Vector{amplify.Memcached, amplify.NTP, amplify.DNS}

// Run drives sc through par workers, each with its own stage built by
// mk and fed inline on its worker's goroutine, then closes the stages
// in worker order on the caller's goroutine — the merge point, so merge
// code needs no locking. It is the driver of every replayed analysis
// here and in core. The merges are exact for any split of the records,
// so the result does not depend on par or on which worker got which
// batch. The first error — the scan's, a Process's or a Close's — is
// returned; every Close still runs.
func Run(sc Scanner, par int, mk func() pipe.Stage) error {
	stages := make([]pipe.Stage, max(par, 1))
	for i := range stages {
		stages[i] = mk()
	}
	err := sc.Scan(len(stages), func(w int, b *pipe.Batch) error {
		defer b.Release()
		return stages[w].Process(b)
	})
	for _, st := range stages {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// newVectorSeries allocates one daily series per reflector vector.
func newVectorSeries() map[amplify.Vector]*timeseries.Series {
	series := make(map[amplify.Vector]*timeseries.Series, len(ReflectorVectors))
	for _, v := range ReflectorVectors {
		series[v] = timeseries.NewDaily()
	}
	return series
}

// triggerStage accumulates one worker's daily to-reflector packet sums
// per vector — the aggregation behind Figure 4 and its robustness
// ablation. Daily sums are integer-valued float64 additions (each well
// below 2^53), so they are exact and independent of record order and
// split; Close folds the worker's series into the merge target (the
// engine serializes Closes).
type triggerStage struct {
	w      Window
	into   map[amplify.Vector]*timeseries.Series
	series map[amplify.Vector]*timeseries.Series
	// ports/byPort flatten the vector lookup off the per-record path.
	ports  []uint16
	byPort []*timeseries.Series
	// bins are the columnar path's per-vector day bins over idx's
	// window days; Close folds them into byPort.
	idx  dayIndex
	bins []dayBins
}

// dayBins is one vector's daily sums indexed by window day. touched
// marks the days a record landed on, even with zero packets: a series
// spans its first to its last touched day.
type dayBins struct {
	sum     []float64
	touched []bool
}

func newTriggerStage(w Window, into map[amplify.Vector]*timeseries.Series) *triggerStage {
	t := &triggerStage{w: w, into: into, series: newVectorSeries(), idx: w.dayIndex()}
	for _, v := range ReflectorVectors {
		t.ports = append(t.ports, v.Port())
		t.byPort = append(t.byPort, t.series[v])
		n := t.idx.days + 1
		t.bins = append(t.bins, dayBins{sum: make([]float64, n), touched: make([]bool, n)})
	}
	return t
}

// Process implements pipe.Stage: it aggregates straight from the
// port/proto columns; no record is materialized.
func (t *triggerStage) Process(b *pipe.Batch) error {
	for i, n := 0, b.Cols.Len(); i < n; i++ {
		t.addCol(b.Cols, i)
	}
	return nil
}

// addCol adds row i of a columnar slab: a window day's packets go to
// its day bin, any other second to the series through dayTimeSec.
func (t *triggerStage) addCol(c *flow.Columns, i int) {
	if c.Proto[i] != packet.IPProtoUDP {
		return
	}
	for j, p := range t.ports {
		if c.DstPort[i] != p {
			continue
		}
		v := float64(c.ScaledPackets(i))
		if d, ok := t.idx.of(c.StartSec[i]); ok {
			t.bins[j].sum[d] += v
			t.bins[j].touched[d] = true
		} else {
			t.byPort[j].Add(t.w.dayTimeSec(c.StartSec[i]), v)
		}
		return
	}
}

// Close implements pipe.Stage: the day bins fold into the worker's
// series at the times dayTimeSec gives their days, then the exact
// worker merge.
func (t *triggerStage) Close() error {
	for j, bins := range t.bins {
		for d, ok := range bins.touched {
			if ok {
				t.byPort[j].Add(t.w.Start.Add(time.Duration(d)*24*time.Hour), bins.sum[d])
			}
		}
	}
	for v, s := range t.into {
		s.Merge(t.series[v])
	}
	return nil
}

// counterStage accumulates one worker's systems-under-attack state.
type counterStage struct {
	into    *classify.AttackCounter
	counter *classify.AttackCounter
}

func newCounterStage(into *classify.AttackCounter) *counterStage {
	return &counterStage{into: into, counter: classify.NewAttackCounter(classify.Config{})}
}

// Process implements pipe.Stage.
func (c *counterStage) Process(b *pipe.Batch) error {
	for i, n := 0, b.Cols.Len(); i < n; i++ {
		c.counter.AddCols(b.Cols, i)
	}
	return nil
}

// Close implements pipe.Stage.
func (c *counterStage) Close() error {
	c.into.Merge(c.counter)
	return nil
}

// panelsFromSeries finishes Figure 4 from the merged trigger series.
func panelsFromSeries(series map[amplify.Vector]*timeseries.Series, w Window, k trafficgen.Kind) ([]Figure4Panel, error) {
	var out []Figure4Panel
	for _, v := range ReflectorVectors {
		label := fmt.Sprintf("packets %v dst port (%v)", v, k)
		metrics, err := timeseries.AnalyzeTakedown(series[v], w.Takedown, label)
		if err != nil {
			return nil, fmt.Errorf("takedown: %s: %w", label, err)
		}
		out = append(out, Figure4Panel{
			Vantage: k,
			Vector:  v,
			Daily:   series[v].Points(),
			Metrics: metrics,
		})
	}
	return out, nil
}

// Figure5Result is the systems-under-attack analysis.
type Figure5Result struct {
	Vantage trafficgen.Kind
	// Hourly is the count of systems under NTP attack per hour.
	Hourly []classify.HourPoint
	// Metrics is the Welch analysis over daily victim counts; the
	// paper's headline result is that neither window is significant.
	Metrics timeseries.TakedownMetrics
}

// figure5FromCounter finishes the Figure 5 analysis from the merged
// attack counter.
func figure5FromCounter(counter *classify.AttackCounter, w Window, k trafficgen.Kind) (*Figure5Result, error) {
	hourly := counter.Series()

	daily := timeseries.NewDaily()
	// Pre-fill every window day so attack-free days count as zero.
	for _, dayTime := range w.dayTimes() {
		daily.Add(dayTime, 0)
	}
	for _, hp := range hourly {
		daily.Add(hp.Hour, float64(hp.Count))
	}
	label := fmt.Sprintf("systems under NTP attack (%v)", k)
	metrics, err := timeseries.AnalyzeTakedown(daily, w.Takedown, label)
	if err != nil {
		return nil, fmt.Errorf("takedown: %s: %w", label, err)
	}
	return &Figure5Result{Vantage: k, Hourly: hourly, Metrics: metrics}, nil
}

// Robustness compares the parametric (Welch) and non-parametric
// (Mann-Whitney) verdicts for one vantage point's Figure 4 panels — the
// ablation for the paper's choice of test statistic on heavy-tailed
// daily sums.
type Robustness struct {
	Vector   amplify.Vector
	WelchSig bool
	RankSig  bool
	RankP    float64
}

// Agrees reports whether both tests reach the same verdict.
func (r Robustness) Agrees() bool { return r.WelchSig == r.RankSig }

// robustnessFromSeries finishes the test comparison from the merged
// trigger series.
func robustnessFromSeries(series map[amplify.Vector]*timeseries.Series, w Window) ([]Robustness, error) {
	var out []Robustness
	for _, v := range ReflectorVectors {
		welch, err := timeseries.AnalyzeEvent(series[v], w.Takedown, 30)
		if err != nil {
			return nil, fmt.Errorf("takedown: robustness welch %v: %w", v, err)
		}
		rank, err := timeseries.AnalyzeEventRank(series[v], w.Takedown, 30)
		if err != nil {
			return nil, fmt.Errorf("takedown: robustness rank %v: %w", v, err)
		}
		out = append(out, Robustness{
			Vector:   v,
			WelchSig: welch.Significant,
			RankSig:  rank.Significant(timeseries.Alpha),
			RankP:    rank.P,
		})
	}
	return out, nil
}

// Analysis bundles everything one pass over a vantage point's records
// can produce.
type Analysis struct {
	Figure4    []Figure4Panel
	Figure5    *Figure5Result
	Robustness []Robustness
}

// Analyze computes Figure 4, Figure 5, and the robustness ablation in
// a single pass over a record stream, on par workers: each worker runs
// the trigger and attack-counter aggregations side by side on the same
// batches, so the records are read once instead of once per figure.
// Results are byte-identical at any par.
func Analyze(sc Scanner, w Window, k trafficgen.Kind, par int) (*Analysis, error) {
	series := newVectorSeries()
	counter := classify.NewAttackCounter(classify.Config{})
	err := Run(sc, par, func() pipe.Stage {
		return pipe.MultiStage(newTriggerStage(w, series), newCounterStage(counter))
	})
	if err != nil {
		return nil, err
	}
	fig4, err := panelsFromSeries(series, w, k)
	if err != nil {
		return nil, err
	}
	rob, err := robustnessFromSeries(series, w)
	if err != nil {
		return nil, err
	}
	fig5, err := figure5FromCounter(counter, w, k)
	if err != nil {
		return nil, err
	}
	return &Analysis{Figure4: fig4, Figure5: fig5, Robustness: rob}, nil
}
