package main

import (
	"fmt"
	"os"
	"reflect"
	"time"

	"booterscope/internal/classify"
	"booterscope/internal/core"
	"booterscope/internal/federation"
	"booterscope/internal/flow"
	"booterscope/internal/flowstore"
	"booterscope/internal/packet"
	"booterscope/internal/pipe"
	"booterscope/internal/takedown"
	"booterscope/internal/trafficgen"
)

const vantage = trafficgen.KindTier2

// storeTotals sums the sealed segments of a store: records held and
// bytes on disk.
func storeTotals(st *flowstore.Store) (records, bytes uint64) {
	for _, e := range st.Segments() {
		records += e.Records
		bytes += e.Bytes
	}
	return records, bytes
}

// ---------------------------------------------------------------- analyze

// analyzeInput is replay_analyze's built input: a sealed tier-2
// archive, the replay study opened over it, and the live analysis of
// the same scenario that every replayed pass must equal.
type analyzeInput struct {
	dir      string
	replay   *core.ReplayStudy
	ref      *takedown.Analysis
	records  uint64
	bytes    uint64
	openWall time.Duration
	// genWall is how long Scenario.Day took to produce generated records.
	genWall   time.Duration
	generated int
}

func (in *analyzeInput) close() {
	if in == nil {
		return
	}
	if in.replay != nil {
		in.replay.Close()
	}
	os.RemoveAll(in.dir)
}

func buildAnalyzeInput(c *runCtx, sz inputSize) (*analyzeInput, error) {
	dir, err := c.dir("analyze")
	if err != nil {
		return nil, err
	}
	in := &analyzeInput{dir: dir}
	sc := newScenario(c.seed, sz)
	var days [][]flow.Record
	days, in.genWall, in.generated = tier2Days(sc, sz, 0)
	if err := writeTier2Archive(dir, sc.Config(), days); err != nil {
		in.close()
		return nil, err
	}
	// The reference is computed live from the generated records,
	// serially: the archive, the scan and the fan-out are all absent
	// from it.
	in.ref, err = takedown.Analyze(memorySource(days), takedown.WindowOf(sc.Config()), vantage, 1)
	if err != nil {
		in.close()
		return nil, err
	}
	t0 := time.Now()
	in.replay, err = core.OpenReplay(dir)
	in.openWall = time.Since(t0)
	if err != nil {
		in.close()
		return nil, err
	}
	in.replay.Parallelism = pipelineParallelism
	in.records, in.bytes = storeTotals(in.replay.Store(vantage))
	return in, nil
}

// pass is one untraced ReplayStudy.Analyze, checked against the live
// reference outside the timed interval.
func (in *analyzeInput) pass(res *result) (time.Duration, error) {
	t0 := time.Now()
	a, err := in.replay.Analyze(vantage)
	wall := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if !reflect.DeepEqual(a, in.ref) {
		res.failf("replayed analysis differs from the live reference")
	}
	return wall, nil
}

// analyzeQuery is the query ReplayStudy.Analyze issues, restated so
// the traced run can rebuild the pipeline from public pieces. A copy
// that drifts from the original changes the result or the scan counts,
// and the traced run checks both.
func analyzeQuery() flowstore.Query {
	ports := make([]uint16, 0, len(takedown.ReflectorVectors))
	for _, v := range takedown.ReflectorVectors {
		ports = append(ports, v.Port())
	}
	return flowstore.Query{
		Protocols:   []uint8{packet.IPProtoUDP},
		PortsEither: ports,
		Project: flowstore.ColSrcAddr | flowstore.ColDstAddr |
			flowstore.ColSrcPort | flowstore.ColDstPort | flowstore.ColProto |
			flowstore.ColCounters | flowstore.ColStartSec,
	}
}

// tracedPass is the same pipeline as ReplayStudy.Analyze with spans
// around the three places the harness can see from outside: the whole
// analysis, the scan inside it, and every hand-off of a batch to the
// fan-out inside that.
func (in *analyzeInput) tracedPass(tr *tracer, res *result) (time.Duration, flowstore.ScanStats, error) {
	st := in.replay.Store(vantage)
	q := analyzeQuery()
	var stats flowstore.ScanStats
	t0 := time.Now()
	root := tr.begin("takedown.analyze", 0)
	src := takedown.Source(func(emit func(*pipe.Batch) error) error {
		scan := tr.begin("flowstore.scan_batches", root)
		var err error
		stats, err = st.ScanBatches(q, func(b *pipe.Batch) error {
			n := int64(b.Len())
			e := tr.begin("pipe.emit", scan)
			err := emit(b)
			tr.end(e, n)
			return err
		})
		tr.end(scan, int64(stats.RecordsMatched))
		return err
	})
	a, err := takedown.Analyze(src, in.replay.Window(), vantage, pipelineParallelism)
	tr.end(root, int64(in.records))
	wall := time.Since(t0)
	if err != nil {
		return 0, stats, err
	}
	if !reflect.DeepEqual(a, in.ref) {
		res.failf("traced (rebuilt) pipeline's analysis differs from the live reference: the restated query has drifted")
	}
	return wall, stats, nil
}

func runReplayAnalyze(c *runCtx) (*result, error) {
	res := newResult("replay_analyze")
	sz := c.size(fullSize)
	in, setupSecs, err := repeatSetup(c.setups(),
		func() (*analyzeInput, error) { return buildAnalyzeInput(c, sz) }, (*analyzeInput).close)
	if err != nil {
		return nil, err
	}
	defer in.close()
	res.Sizes["records"] = float64(in.records)
	sz.record(res)

	firstPass, err := in.pass(res) // warm-up: page cache, pools, lazy init
	if err != nil {
		return nil, err
	}
	if !c.trace {
		walls, err := measureFor(c.budget(1), func(int) (time.Duration, error) { return in.pass(res) })
		if err != nil {
			return nil, err
		}
		res.Attempted = in.records * uint64(len(walls))
		// A batch pass is its own latency sample: input → complete result.
		ms := scaled(walls, 1e3)
		res.endToEnd(setupSecs, perSecond(in.records, walls), float64(in.bytes)/float64(in.records), ms, ms, "passes")
		return res, nil
	}
	return res, in.traced(c, res, firstPass)
}

// traced is replay_analyze's per-layer run: untraced passes and the
// same passes with spans in turn (metered), then each layer driven
// alone.
func (in *analyzeInput) traced(c *runCtx, res *result, firstPass time.Duration) error {
	tr := c.tr
	res.add("core.open_replay_ms", float64(in.openWall)/1e6)
	res.add("core.first_pass_ms", float64(firstPass)/1e6)

	var scanWait, emitTime, finish []float64
	var want flowstore.ScanStats
	m := startMeter(nil)
	plain, withSpans, err := alternate(c.budget(0.5),
		func(int) (time.Duration, error) { return in.pass(res) },
		func(i int) (time.Duration, error) {
			from := tr.mark()
			wall, stats, err := in.tracedPass(tr, res)
			if err != nil {
				return 0, err
			}
			if i == 0 {
				want = stats
			} else if stats != want {
				res.failf("ScanStats differ between passes: %+v then %+v", want, stats)
			}
			t := selfTimes(tr.spans[from:])
			scanWait = append(scanWait, t["flowstore.scan_batches"].Self.Seconds())
			emitTime = append(emitTime, t["pipe.emit"].Total.Seconds())
			finish = append(finish, float64(t["takedown.analyze"].Self)/1e6)
			return wall, nil
		})
	if err != nil {
		return err
	}
	res.Attempted = in.records * uint64(len(plain)+len(withSpans))
	m.finish().addTo(res, res.Attempted)
	res.add("bench.trace_overhead_frac", overhead(plain, withSpans))
	res.add("flowstore.scan_wait_s", scanWait...)
	res.add("pipe.emit_s", emitTime...)
	res.add("takedown.finish_ms", finish...)
	res.add("flowstore.blocks_scanned", float64(want.BlocksScanned))
	res.add("flowstore.blocks_pruned", float64(want.BlocksPruned))
	res.add("flowstore.records_scanned", float64(want.RecordsScanned))
	res.add("flowstore.records_matched", float64(want.RecordsMatched))
	res.add("flowstore.columns_decoded_frac", want.ColumnsDecodedFraction())

	// Single-threaded baseline of the same job.
	in.replay.Parallelism = 1
	par1, err := measureFor(c.budget(0.1), func(int) (time.Duration, error) { return in.pass(res) })
	in.replay.Parallelism = pipelineParallelism
	if err != nil {
		return err
	}
	res.add("core.par1_rec_per_s", perSecond(in.records, par1)...)

	// The scan alone: same query, batches released on arrival. While
	// at it, keep a bounded sample of the batches for the passes below.
	st := in.replay.Store(vantage)
	q := analyzeQuery()
	const sampleBatches = 48
	var sample []*pipe.Batch
	var sampleRecs uint64
	scanOnly, err := measureFor(c.budget(0.1), func(i int) (time.Duration, error) {
		t0 := time.Now()
		stats, err := st.ScanBatches(q, func(b *pipe.Batch) error {
			if i == 0 && len(sample) < sampleBatches {
				keep := &pipe.Batch{Cols: new(flow.Columns)}
				keep.Cols.AppendRange(b.Cols, 0, b.Cols.Len())
				sample = append(sample, keep)
				sampleRecs += uint64(keep.Len())
			}
			b.Release()
			return nil
		})
		wall := time.Since(t0)
		if err == nil && stats != want {
			res.failf("ScanStats of the bare scan %+v differ from the pipeline's %+v", stats, want)
		}
		return wall, err
	})
	if err != nil {
		return err
	}
	// The first pass also copied the sample; leave it out.
	res.add("flowstore.scan_ns_per_rec", scaled(scanOnly[1:], 1e9/float64(want.RecordsScanned))...)
	if sampleRecs == 0 {
		return fmt.Errorf("analyze scan matched no records")
	}
	res.Sizes["sample_records"] = float64(sampleRecs)
	perRec := 1e9 / float64(sampleRecs)

	noop := pipe.StageFunc{}
	route, err := measureFor(c.budget(0.08), func(int) (time.Duration, error) {
		t0 := time.Now()
		f := pipe.NewFanOut(pipe.KeyDst, noop, noop)
		f.SetColKey(pipe.KeyDstCols)
		for _, b := range sample {
			if err := f.Process(b); err != nil {
				return 0, err
			}
		}
		err := f.Close()
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	res.add("pipe.route_cols_ns_per_rec", scaled(route, perRec)...)

	count, _ := measureFor(c.budget(0.08), func(int) (time.Duration, error) {
		t0 := time.Now()
		cnt := classify.NewAttackCounter(classify.Config{})
		for _, b := range sample {
			for i, n := 0, b.Cols.Len(); i < n; i++ {
				cnt.AddCols(b.Cols, i)
			}
		}
		return time.Since(t0), nil
	})
	res.add("classify.counter_addcols_ns_per_rec", scaled(count, perRec)...)

	// The whole analysis at parallelism 1 over the in-memory sample:
	// no store, no worker goroutines. The source hands out copies
	// (Run releases what it is given); the copying is timed and taken
	// out.
	mem, err := measureFor(c.budget(0.08), func(int) (time.Duration, error) {
		var copying time.Duration
		src := takedown.Source(func(emit func(*pipe.Batch) error) error {
			for _, sb := range sample {
				t0 := time.Now()
				b := pipe.NewColsBatch()
				b.Cols.AppendRange(sb.Cols, 0, sb.Cols.Len())
				copying += time.Since(t0)
				if err := emit(b); err != nil {
					return err
				}
			}
			return nil
		})
		t0 := time.Now()
		_, err := takedown.Analyze(src, in.replay.Window(), vantage, 1)
		return time.Since(t0) - copying, err
	})
	if err != nil {
		return err
	}
	res.add("takedown.analyze_mem_ns_per_rec", scaled(mem, perRec)...)

	res.add("trafficgen.gen_rec_per_s", float64(in.generated)/in.genWall.Seconds())
	return nil
}

// -------------------------------------------------------------- correlate

// correlateInput is replay_correlate's built input: a three-vantage
// federated archive, the coordinator over it, and the report a fully
// serial coordinator produces from the same archive.
type correlateInput struct {
	dir     string
	coord   *federation.Coordinator
	ref     *federation.CorrelationReport
	records uint64
	bytes   uint64
}

func (in *correlateInput) close() {
	if in == nil {
		return
	}
	if in.coord != nil {
		in.coord.Close()
	}
	os.RemoveAll(in.dir)
}

func buildCorrelateInput(c *runCtx, sz inputSize) (*correlateInput, error) {
	dir, err := c.dir("correlate")
	if err != nil {
		return nil, err
	}
	in := &correlateInput{dir: dir}
	man, err := writeFederatedArchive(dir, newScenario(c.seed, sz), sz)
	if err != nil {
		in.close()
		return nil, err
	}
	serial, err := federation.Open(man, federation.Options{Parallelism: 1, MaxParallel: 1})
	if err != nil {
		in.close()
		return nil, err
	}
	in.ref, err = serial.Correlate(federation.CorrelateOptions{})
	serial.Close()
	if err != nil {
		in.close()
		return nil, err
	}
	in.coord, err = federation.Open(man, federation.Options{Parallelism: pipelineParallelism})
	if err != nil {
		in.close()
		return nil, err
	}
	for _, name := range in.coord.Names() {
		r, b := storeTotals(in.coord.Store(name))
		in.records += r
		in.bytes += b
	}
	return in, nil
}

// pass is one Coordinator.Correlate under a single span (the
// coordinator is opaque from outside), checked against the serial
// reference outside the timed interval.
func (in *correlateInput) pass(tr *tracer, res *result) (time.Duration, error) {
	t0 := time.Now()
	id := tr.begin("federation.correlate", 0)
	rep, err := in.coord.Correlate(federation.CorrelateOptions{})
	tr.end(id, int64(in.records))
	wall := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if !reflect.DeepEqual(rep, in.ref) {
		res.failf("correlation report differs from the Parallelism-1 / MaxParallel-1 reference")
	}
	return wall, nil
}

func runReplayCorrelate(c *runCtx) (*result, error) {
	res := newResult("replay_correlate")
	sz := c.size(correlateSize)
	in, setupSecs, err := repeatSetup(c.setups(),
		func() (*correlateInput, error) { return buildCorrelateInput(c, sz) }, (*correlateInput).close)
	if err != nil {
		return nil, err
	}
	defer in.close()
	res.Sizes["records"] = float64(in.records)
	sz.record(res)
	res.Sizes["vantages"] = float64(len(in.coord.Names()))

	if _, err := in.pass(nil, res); err != nil { // warm-up
		return nil, err
	}
	if !c.trace {
		walls, err := measureFor(c.budget(1), func(int) (time.Duration, error) { return in.pass(nil, res) })
		if err != nil {
			return nil, err
		}
		res.Attempted = in.records * uint64(len(walls))
		// A batch pass is its own latency sample: input → complete result.
		ms := scaled(walls, 1e3)
		res.endToEnd(setupSecs, perSecond(in.records, walls), float64(in.bytes)/float64(in.records), ms, ms, "passes")
		return res, nil
	}
	return res, in.traced(c, res)
}

func (in *correlateInput) traced(c *runCtx, res *result) error {
	m := startMeter(nil)
	plain, withSpans, err := alternate(c.budget(0.6),
		func(int) (time.Duration, error) { return in.pass(nil, res) },
		func(int) (time.Duration, error) { return in.pass(c.tr, res) })
	if err != nil {
		return err
	}
	res.Attempted = in.records * uint64(len(plain)+len(withSpans))
	m.finish().addTo(res, res.Attempted)
	res.add("bench.trace_overhead_frac", overhead(plain, withSpans))

	var matched uint64
	for _, pv := range in.ref.PerVantage {
		matched += pv.Stats.RecordsMatched
	}
	res.add("federation.attacks_joined", float64(len(in.ref.Attacks)))
	res.add("federation.disagreements", float64(in.ref.Disagreements))
	res.add("federation.records_matched", float64(matched))
	if matched != in.records {
		res.failf("correlate scanned %d records, the vantage manifests hold %d", matched, in.records)
	}

	// The ordered, row-materialising scan alone, over every vantage
	// store in turn; the first pass keeps the rows for the passes below.
	var streams [][]flow.Record
	ordered, err := measureFor(c.budget(0.15), func(i int) (time.Duration, error) {
		var wall time.Duration
		for _, name := range in.coord.Names() {
			var rows []flow.Record
			t0 := time.Now()
			_, err := in.coord.Store(name).Scan(flowstore.Query{}, func(r *flow.Record) error {
				if i == 0 {
					rows = append(rows, *r)
				}
				return nil
			})
			wall += time.Since(t0)
			if err != nil {
				return 0, err
			}
			if i == 0 {
				streams = append(streams, rows)
			}
		}
		return wall, nil
	})
	if err != nil {
		return err
	}
	perRec := 1e9 / float64(in.records)
	res.add("flowstore.ordered_scan_ns_per_rec", scaled(ordered[1:], perRec)...)

	route, err := measureFor(c.budget(0.1), func(int) (time.Duration, error) {
		var wall time.Duration
		for _, rows := range streams {
			w, err := routeRowsOnce(rows, correlateBatch)
			if err != nil {
				return 0, err
			}
			wall += w
		}
		return wall, nil
	})
	if err != nil {
		return err
	}
	res.add("pipe.route_rows_ns_per_rec", scaled(route, perRec)...)

	var stats classify.MonitorStats
	add, _ := measureFor(c.budget(0.1), func(int) (time.Duration, error) {
		var wall time.Duration
		stats = classify.MonitorStats{}
		for _, rows := range streams {
			w, s, _ := serialMonitor(rows)
			wall += w
			stats.Records += s.Records
			stats.Matched += s.Matched
			stats.Alerts += s.Alerts
		}
		return wall, nil
	})
	res.add("classify.monitor_add_ns_per_rec", scaled(add, perRec)...)
	res.add("classify.matched_frac", float64(stats.Matched)/float64(max(stats.Records, 1)))
	res.add("classify.alerts", float64(stats.Alerts))
	return nil
}

// correlateBatch is the slab size federation cuts its ordered scan
// stream into before the fan-out.
const correlateBatch = 1024

// routeRowsOnce drives rows, batch at a time, through a stamping
// fan-out (the monitor's mark filter set, so watermarks and sequence
// numbers are maintained) over two no-op shards, and returns the wall
// time including Close.
func routeRowsOnce(rows []flow.Record, batch int) (time.Duration, error) {
	noop := pipe.StageFunc{}
	markIf := classify.NewShardedMonitor(classify.Config{}, pipelineParallelism).MarkFilter()
	t0 := time.Now()
	f := pipe.NewFanOut(pipe.KeyDst, noop, noop)
	f.SetMarkFilter(markIf)
	for lo := 0; lo < len(rows); lo += batch {
		b := pipe.Batch{Recs: rows[lo:min(lo+batch, len(rows))]}
		if err := f.Process(&b); err != nil {
			return 0, err
		}
	}
	err := f.Close()
	return time.Since(t0), err
}

// serialMonitor feeds rows to one classify.Monitor in order — the
// reference every sharded run must reproduce — and returns the wall
// time, the monitor's accounting, and each alert with the index of the
// record that raised it.
func serialMonitor(rows []flow.Record) (time.Duration, classify.MonitorStats, []refAlert) {
	var alerts []refAlert
	t0 := time.Now()
	m := classify.NewMonitor(classify.Config{})
	for i := range rows {
		if a := m.Add(&rows[i]); a != nil {
			alerts = append(alerts, refAlert{key: alertKey{a.Victim, a.Minute.Unix()}, rec: i})
		}
	}
	return time.Since(t0), m.Stats(), alerts
}
