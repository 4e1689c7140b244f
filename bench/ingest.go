package main

import (
	"fmt"
	"os"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/flowstore"
)

// appendChunk is how many records one Store.Append call carries — the
// size of a collector hand-off, so a call's latency is what a live
// archiving daemon would stall for.
const appendChunk = 1024

// ingestPass is what one write of the whole input measured.
type ingestPass struct {
	wall      time.Duration
	appendSum time.Duration
	closeWall time.Duration
	calls     []int64 // per-Append nanoseconds
	stats     flowstore.Stats
}

// ingestOnce appends recs to a fresh store in dir, closes it, and
// checks the ledger: everything appended is durable, nothing dropped,
// and the manifest agrees.
func ingestOnce(dir string, recs []flow.Record, tr *tracer, res *result) (*ingestPass, error) {
	p := &ingestPass{calls: make([]int64, 0, len(recs)/appendChunk+1)}
	t0 := time.Now()
	root := tr.begin("ingest.pass", 0)
	st, err := flowstore.Open(dir, flowstore.Options{})
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < len(recs); lo += appendChunk {
		chunk := recs[lo:min(lo+appendChunk, len(recs))]
		c0 := time.Now()
		id := tr.begin("flowstore.append", root)
		err := st.Append(chunk)
		tr.end(id, int64(len(chunk)))
		d := time.Since(c0)
		if err != nil {
			st.Close()
			return nil, err
		}
		p.calls = append(p.calls, int64(d))
		p.appendSum += d
	}
	c0 := time.Now()
	id := tr.begin("flowstore.close", root)
	err = st.Close()
	tr.end(id, 0)
	p.closeWall = time.Since(c0)
	tr.end(root, int64(len(recs)))
	p.wall = time.Since(t0)
	if err != nil {
		return nil, err
	}
	p.stats = st.Stats()
	n := uint64(len(recs))
	if p.stats.RecordsAppended != n || p.stats.RecordsDurable != n || p.stats.RecordsDropped != 0 || p.stats.RecordsBuffered != 0 {
		res.failf("ingest ledger: appended %d durable %d buffered %d dropped %d, want %d durable",
			p.stats.RecordsAppended, p.stats.RecordsDurable, p.stats.RecordsBuffered, p.stats.RecordsDropped, n)
	}
	if held, _ := storeTotals(st); held != n {
		res.failf("manifest holds %d records, appended %d", held, n)
	}
	return p, nil
}

// readBack reopens the archive at dir and counts a full scan.
func readBack(dir string) (uint64, error) {
	st, err := flowstore.Open(dir, flowstore.Options{})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	var n uint64
	_, err = st.Scan(flowstore.Query{}, func(*flow.Record) error { n++; return nil })
	return n, err
}

func runIngestArchive(c *runCtx) (*result, error) {
	res := newResult("ingest_archive")
	sz := c.size(fullSize)
	type input struct {
		recs      []flow.Record
		gen       time.Duration
		generated int
	}
	// replay_analyze's records, time-sorted within each day: the order a
	// collector's export would arrive in.
	in, setupSecs, err := repeatSetup(c.setups(), func() (input, error) {
		days, gen, generated := tier2Days(newScenario(c.seed, sz), sz, 0)
		recs := make([]flow.Record, 0, totalLen(days))
		for _, day := range days {
			recs = append(recs, sortByStart(day)...)
		}
		return input{recs, gen, generated}, nil
	}, func(input) {})
	if err != nil {
		return nil, err
	}
	recs := in.recs
	n := uint64(len(recs))
	res.Sizes["records"] = float64(n)
	sz.record(res)
	res.Sizes["append_chunk"] = appendChunk

	// Every pass writes a fresh directory; the previous one is removed
	// outside the timed interval, the last one kept for the read-back.
	var lastDir string
	var passes []*ingestPass
	pass := func(tr *tracer) (time.Duration, error) {
		if lastDir != "" {
			os.RemoveAll(lastDir)
		}
		dir, err := c.dir("ingest")
		if err != nil {
			return 0, err
		}
		lastDir = dir
		p, err := ingestOnce(dir, recs, tr, res)
		if err != nil {
			return 0, err
		}
		passes = append(passes, p)
		return p.wall, nil
	}
	defer func() { os.RemoveAll(lastDir) }()

	if _, err := pass(nil); err != nil { // warm-up
		return nil, err
	}
	passes = passes[:0]

	var plain, withSpans []float64
	if !c.trace {
		plain, err = measureFor(c.budget(1), func(int) (time.Duration, error) { return pass(nil) })
	} else {
		m := startMeter(nil)
		plain, withSpans, err = alternate(c.budget(0.9),
			func(int) (time.Duration, error) { return pass(nil) },
			func(int) (time.Duration, error) { return pass(c.tr) })
		if err == nil {
			m.finish().addTo(res, n*uint64(len(passes)))
		}
	}
	if err != nil {
		return nil, err
	}
	res.Attempted = n * uint64(len(passes))

	// Same bytes every pass, or the encoder is not deterministic.
	for _, p := range passes[1:] {
		if p.stats.BytesWritten != passes[0].stats.BytesWritten {
			res.failf("bytes written differ between passes: %d then %d", passes[0].stats.BytesWritten, p.stats.BytesWritten)
			break
		}
	}
	back, err := readBack(lastDir)
	if err != nil {
		return nil, err
	}
	if back != n {
		res.failf("reopen + full scan read %d records, appended %d", back, n)
		res.Failed = n - min(back, n)
	}

	var calls []int64
	for _, p := range passes {
		calls = append(calls, p.calls...)
	}
	ms := msOf(calls)
	if !c.trace {
		p50s := make([]float64, len(passes))
		for i, p := range passes {
			p50s[i] = median(msOf(p.calls))
		}
		res.endToEnd(setupSecs, perSecond(n, plain), float64(passes[0].stats.BytesWritten)/float64(n), p50s, ms, "Append calls")
		return res, nil
	}

	res.add("bench.trace_overhead_frac", overhead(plain, withSpans))
	var appendS, closeS []float64
	for _, p := range passes {
		appendS = append(appendS, p.appendSum.Seconds())
		closeS = append(closeS, p.closeWall.Seconds())
	}
	res.add("flowstore.append_s", appendS...)
	res.add("flowstore.close_s", closeS...)
	res.add("flowstore.append_ms_p50", median(ms))
	res.addNoted("flowstore.append_ms_p99", fmt.Sprintf("%d calls", len(ms)), percentileOf(ms, 99))
	res.add("flowstore.append_ms_max", percentileOf(ms, 100))
	res.add("flowstore.blocks_written", float64(passes[0].stats.BlocksWritten))
	res.add("flowstore.segments_sealed", float64(passes[0].stats.SegmentsSealed))
	res.add("flowstore.bytes_written", float64(passes[0].stats.BytesWritten))
	res.add("trafficgen.gen_rec_per_s", float64(in.generated)/in.gen.Seconds())
	return res, nil
}
