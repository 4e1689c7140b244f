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
// Every analysis runs on the batch pipeline (internal/pipe): records
// are hash-fanned across par shard stages, each shard aggregates
// locally, and shard results merge exactly — the sums are
// integer-valued and the maps victim-disjoint — so any parallelism
// yields byte-identical output to the serial pass.
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

// RunSharded drives src through par shard stages built by mk, routed
// by victim hash — the pipeline driver of every sharded analysis here
// and in core.
func RunSharded(src Source, par int, mk func() pipe.Stage) error {
	if par < 1 {
		par = 1
	}
	stages := make([]pipe.Stage, par)
	for i := range stages {
		stages[i] = mk()
	}
	return pipe.RunShardedCols(pipe.Source(src), pipe.KeyDst, pipe.KeyDstCols, stages...)
}

// newVectorSeries allocates one daily series per reflector vector.
func newVectorSeries() map[amplify.Vector]*timeseries.Series {
	series := make(map[amplify.Vector]*timeseries.Series, len(ReflectorVectors))
	for _, v := range ReflectorVectors {
		series[v] = timeseries.NewDaily()
	}
	return series
}

// triggerStage accumulates one shard's daily to-reflector packet sums
// per vector — the shared aggregation behind Figure 4, its robustness
// ablation, and the direction breakdown. Daily sums are integer-valued
// float64 additions (each well below 2^53), so they are exact and
// independent of record order and sharding; Close folds the shard's
// series into the merge target (the engine serializes Closes).
type triggerStage struct {
	w      Window
	into   map[amplify.Vector]*timeseries.Series
	series map[amplify.Vector]*timeseries.Series
	// ports/byPort flatten the vector lookup off the per-record path.
	ports  []uint16
	byPort []*timeseries.Series
}

func newTriggerStage(w Window, into map[amplify.Vector]*timeseries.Series) *triggerStage {
	t := &triggerStage{w: w, into: into, series: newVectorSeries()}
	for _, v := range ReflectorVectors {
		t.ports = append(t.ports, v.Port())
		t.byPort = append(t.byPort, t.series[v])
	}
	return t
}

// Process implements pipe.Stage. Columnar batches aggregate straight
// from the port/proto columns; no record is materialized.
func (t *triggerStage) Process(b *pipe.Batch) error {
	if c := b.Cols; c != nil {
		for i, n := 0, c.Len(); i < n; i++ {
			if c.Proto[i] != packet.IPProtoUDP {
				continue
			}
			for j, p := range t.ports {
				if c.DstPort[i] == p {
					t.byPort[j].Add(t.w.dayTimeSec(c.StartSec[i]), float64(c.ScaledPackets(i)))
					break
				}
			}
		}
		return nil
	}
	for i := range b.Recs {
		rec := &b.Recs[i]
		if rec.Protocol != packet.IPProtoUDP {
			continue
		}
		for j, p := range t.ports {
			if rec.DstPort == p {
				t.byPort[j].Add(t.w.dayTime(rec.Start), float64(rec.ScaledPackets()))
				break
			}
		}
	}
	return nil
}

// Close implements pipe.Stage: the exact shard merge.
func (t *triggerStage) Close() error {
	for v, s := range t.into {
		s.Merge(t.series[v])
	}
	return nil
}

// counterStage accumulates one shard's systems-under-attack state.
type counterStage struct {
	into    *classify.AttackCounter
	counter *classify.AttackCounter
}

func newCounterStage(into *classify.AttackCounter) *counterStage {
	return &counterStage{into: into, counter: classify.NewAttackCounter(classify.Config{})}
}

// Process implements pipe.Stage.
func (c *counterStage) Process(b *pipe.Batch) error {
	if cols := b.Cols; cols != nil {
		for i, n := 0, cols.Len(); i < n; i++ {
			c.counter.AddCols(cols, i)
		}
		return nil
	}
	for i := range b.Recs {
		c.counter.Add(&b.Recs[i])
	}
	return nil
}

// Close implements pipe.Stage.
func (c *counterStage) Close() error {
	c.into.Merge(c.counter)
	return nil
}

// triggerSeries runs the trigger aggregation over src with par shards.
func triggerSeries(src Source, w Window, par int) (map[amplify.Vector]*timeseries.Series, error) {
	merged := newVectorSeries()
	err := RunSharded(src, par, func() pipe.Stage { return newTriggerStage(w, merged) })
	if err != nil {
		return nil, err
	}
	return merged, nil
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

// Figure4 computes the to-reflector traffic analysis for one vantage
// point of a scenario.
//
//bsvet:allow deadcode oracle: TestReplayMatchesLive compares the replay with this serial live reference
func Figure4(s *trafficgen.Scenario, k trafficgen.Kind) ([]Figure4Panel, error) {
	return Figure4Source(scenarioSource(s, k), WindowOf(s.Config()), k, 1)
}

// Figure4Source computes the Figure 4 panels from any record stream —
// live generation or a flowstore replay — over the given window,
// sharded par ways. k labels the vantage point in the output.
func Figure4Source(src Source, w Window, k trafficgen.Kind, par int) ([]Figure4Panel, error) {
	series, err := triggerSeries(src, w, par)
	if err != nil {
		return nil, err
	}
	return panelsFromSeries(series, w, k)
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

// Figure5 counts systems under NTP DDoS attack (conservative filter)
// per hour across the scenario and tests for a reduction at the
// takedown.
//
//bsvet:allow deadcode oracle: TestReplayMatchesLive compares the replay with this serial live reference
func Figure5(s *trafficgen.Scenario, k trafficgen.Kind) (*Figure5Result, error) {
	return Figure5Source(scenarioSource(s, k), WindowOf(s.Config()), k, 1)
}

// Figure5Source computes the systems-under-attack analysis from any
// record stream over the given window, sharded par ways. The attack
// counter is a per-victim map aggregation with an exact merge, so the
// result is independent of record order and shard count.
func Figure5Source(src Source, w Window, k trafficgen.Kind, par int) (*Figure5Result, error) {
	counter := classify.NewAttackCounter(classify.Config{})
	err := RunSharded(src, par, func() pipe.Stage { return newCounterStage(counter) })
	if err != nil {
		return nil, err
	}
	return figure5FromCounter(counter, w, k)
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

// Figure4Robustness runs both tests over the ±30-day window for each
// reflector vector.
//
//bsvet:allow deadcode oracle: TestReplayMatchesLive compares the replay with this serial live reference
func Figure4Robustness(s *trafficgen.Scenario, k trafficgen.Kind) ([]Robustness, error) {
	return Figure4RobustnessSource(scenarioSource(s, k), WindowOf(s.Config()), 1)
}

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

// Figure4RobustnessSource runs the parametric/non-parametric comparison
// from any record stream, sharded par ways.
func Figure4RobustnessSource(src Source, w Window, par int) ([]Robustness, error) {
	series, err := triggerSeries(src, w, par)
	if err != nil {
		return nil, err
	}
	return robustnessFromSeries(series, w)
}

// Analysis bundles everything one pass over a vantage point's records
// can produce.
type Analysis struct {
	Figure4    []Figure4Panel
	Figure5    *Figure5Result
	Robustness []Robustness
}

// Analyze computes Figure 4, Figure 5, and the robustness ablation in
// a single sharded pass over the record stream: each shard runs the
// trigger and attack-counter aggregations side by side on the same
// batches, so the source is scanned once instead of once per figure.
// Results are byte-identical to the separate per-figure passes at any
// par.
func Analyze(src Source, w Window, k trafficgen.Kind, par int) (*Analysis, error) {
	series := newVectorSeries()
	counter := classify.NewAttackCounter(classify.Config{})
	err := RunSharded(src, par, func() pipe.Stage {
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

// directionStage accumulates one shard's per-direction daily sums for
// a single vector.
type directionStage struct {
	w      Window
	v      amplify.Vector
	into   map[flow.Direction]*timeseries.Series
	series map[flow.Direction]*timeseries.Series
}

func newDirectionStage(w Window, v amplify.Vector, into map[flow.Direction]*timeseries.Series) *directionStage {
	return &directionStage{
		w: w, v: v, into: into,
		series: map[flow.Direction]*timeseries.Series{
			flow.Ingress: timeseries.NewDaily(),
			flow.Egress:  timeseries.NewDaily(),
		},
	}
}

// Process implements pipe.Stage.
func (d *directionStage) Process(b *pipe.Batch) error {
	if c := b.Cols; c != nil {
		port := d.v.Port()
		for i, n := 0, c.Len(); i < n; i++ {
			if c.Proto[i] == packet.IPProtoUDP && c.DstPort[i] == port {
				d.series[c.Direction(i)].Add(d.w.dayTime(c.Start(i)), float64(c.ScaledPackets(i)))
			}
		}
		return nil
	}
	for i := range b.Recs {
		rec := &b.Recs[i]
		if rec.Protocol == packet.IPProtoUDP && rec.DstPort == d.v.Port() {
			d.series[rec.Direction].Add(d.w.dayTime(rec.Start), float64(rec.ScaledPackets()))
		}
	}
	return nil
}

// Close implements pipe.Stage.
func (d *directionStage) Close() error {
	for dir, s := range d.into {
		s.Merge(d.series[dir])
	}
	return nil
}

// directionBreakdownSource computes the per-direction metrics from any
// record stream, sharded par ways.
//
//bsvet:allow deadcode no production caller; kept for TestDirectionBreakdownTier2 and TestDirectionBreakdownTier1IngressOnly (deletion deferred, ROADMAP 8(iv))
func directionBreakdownSource(src Source, w Window, k trafficgen.Kind, v amplify.Vector, par int) (map[flow.Direction]timeseries.TakedownMetrics, error) {
	series := map[flow.Direction]*timeseries.Series{
		flow.Ingress: timeseries.NewDaily(),
		flow.Egress:  timeseries.NewDaily(),
	}
	err := RunSharded(src, par, func() pipe.Stage { return newDirectionStage(w, v, series) })
	if err != nil {
		return nil, err
	}
	out := make(map[flow.Direction]timeseries.TakedownMetrics, 2)
	for dir, ser := range series {
		if ser.Sum() == 0 {
			continue
		}
		label := fmt.Sprintf("packets %v dst port %v (%v)", v, dir, k)
		metrics, err := timeseries.AnalyzeTakedown(ser, w.Takedown, label)
		if err != nil {
			return nil, fmt.Errorf("takedown: %s: %w", label, err)
		}
		out[dir] = metrics
	}
	return out, nil
}
