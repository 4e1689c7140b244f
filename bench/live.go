package main

import (
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync/atomic"
	"time"

	"booterscope/internal/classify"
	"booterscope/internal/flow"
	"booterscope/internal/ipfix"
	"booterscope/internal/service"
)

const (
	// recsPerDatagram keeps a datagram near 1.4 KB, under a loopback
	// MTU's worth of payload and typical of exporter configuration.
	recsPerDatagram = 24
	// windowDatagrams bounds the closed loop: at most this many
	// datagrams (≤ 64 KB) are in flight, which a default socket buffer
	// holds, so the kernel never has to drop one.
	windowDatagrams = 32
	// progressTimeout is how long the sender waits on a full window (or
	// for the last deliveries) without a single record arriving before
	// it writes the datagrams in flight off as lost. Without it one
	// dropped datagram would stall a closed loop forever.
	progressTimeout = 200 * time.Millisecond

	// pacedRate is live_paced's offered load in records per second —
	// a few percent of what the path can carry, so latency there is
	// queueing and batching, not CPU.
	pacedRate = 40000
	// pacedLeadIn records of the same stream run before the measured
	// window to warm the path; they are sent on schedule and discarded.
	pacedLeadIn = 40000
	// pacedTail records follow the measured window so that every
	// measured alert is raised by traffic pushing it through the
	// pipeline, never by the final Drain.
	pacedTail = 20000
	// maxLateness is how late the open-loop sender may run (p99) before
	// the run is flagged: beyond it the schedule, not the system, shaped
	// the latencies.
	maxLateness = 5 * time.Millisecond
	// minStallFrac is the share of a closed-loop pass the sender must
	// spend waiting on its window for the system — not the sender — to
	// have been the bottleneck.
	minStallFrac = 0.5
)

// alertKey identifies an alert across runs: a victim alerts at most
// once per re-alert interval, so (victim, minute) is unique.
type alertKey struct {
	victim netip.Addr
	minute int64
}

// refAlert is one alert of the serial reference run and the index of
// the record whose arrival raised it.
type refAlert struct {
	key alertKey
	rec int
}

// dueOffset is the open-loop schedule: when, relative to the first
// send, datagram k is due at rate records per second.
func dueOffset(k, perDatagram, rate int) time.Duration {
	return time.Duration(int64(k) * int64(perDatagram) * int64(time.Second) / int64(rate))
}

// liveInput is a live workload's built input: the time-sorted record
// stream, the same stream as encoded IPFIX datagrams, and the alerts a
// serial classify.Monitor raises on it.
type liveInput struct {
	recs      []flow.Record
	dgrams    [][]byte
	wireBytes uint64
	ref       []refAlert
	refIdx    map[alertKey]int
	monStats  classify.MonitorStats

	// generated counts the records genWall produced (the stream may be
	// cut shorter).
	generated                        int
	genWall, encodeWall, monitorWall time.Duration
}

// buildLiveInput generates sz worth of tier-2 traffic (only the first
// want records of it when want > 0), sorts it by start time, encodes
// it, and computes the reference alerts.
func buildLiveInput(seed uint64, sz inputSize, want int) (*liveInput, error) {
	in := &liveInput{}
	var days [][]flow.Record
	days, in.genWall, in.generated = tier2Days(newScenario(seed, sz), sz, want)
	recs := sortedStream(days)
	if want > 0 {
		if len(recs) < want {
			return nil, fmt.Errorf("scenario holds %d records, the stream needs %d", len(recs), want)
		}
		recs = recs[:want]
	}
	in.recs = recs

	t0 := time.Now()
	enc := &ipfix.Encoder{DomainID: 1}
	in.dgrams = make([][]byte, 0, len(recs)/recsPerDatagram+1)
	for lo := 0; lo < len(recs); lo += recsPerDatagram {
		msg, err := enc.Encode(recs[lo:min(lo+recsPerDatagram, len(recs))], recs[lo].Start)
		if err != nil {
			return nil, err
		}
		in.dgrams = append(in.dgrams, msg)
		in.wireBytes += uint64(len(msg))
	}
	in.encodeWall = time.Since(t0)

	in.monitorWall, in.monStats, in.ref = serialMonitor(recs)
	in.refIdx = make(map[alertKey]int, len(in.ref))
	for i, a := range in.ref {
		in.refIdx[a.key] = i
	}
	return in, nil
}

// loadShape says how a pass offers the stream: closed loop (rate 0)
// or open loop at rate records per second, and from which handler call
// on the receiver stamps hand-off times (traced passes only).
type loadShape struct {
	rate      int
	stampFrom int
}

// delivery is what the load generator observed while driving one pass.
// All times are nanoseconds since epoch.
type delivery struct {
	epoch     time.Time
	firstSend int64
	// lastDelivery is when the handler last returned.
	lastDelivery atomic.Int64
	sent         uint64
	delivered    atomic.Uint64
	// sendAt is, per datagram, when it was due (open loop) or actually
	// sent (closed loop): the instant its records' latency counts from.
	sendAt []int64
	// handoffAt is, per handler call, when the handler was entered
	// (only from loadShape.stampFrom on). Call k carries datagram k as
	// long as nothing was lost.
	handoffAt []int64
	// late holds the open-loop sender's lateness per datagram; stall
	// the closed-loop sender's total wait on its window.
	late  []int64
	stall time.Duration
	// cpuAt samples process CPU time when the sender crosses each of
	// the record indices asked for.
	cpuAt []time.Duration
	stats ipfix.CollectorStats
}

func (d *delivery) since() int64 { return int64(time.Since(d.epoch)) }

// liveRunner drives passes of one input and exposes the collector
// currently running to the meter's queue-depth probe.
type liveRunner struct {
	in   *liveInput
	coll atomic.Pointer[ipfix.Collector]
}

func (lr *liveRunner) queueDepth() int {
	if c := lr.coll.Load(); c != nil {
		d, _ := c.QueueDepth()
		return d
	}
	return 0
}

// drive offers the whole stream to a fresh collector over loopback
// UDP and returns once every record has been handed to handle or
// written off. handle runs on the collector's decode goroutine; the
// sender is the calling goroutine, and the only one.
func (lr *liveRunner) drive(epoch time.Time, shape loadShape, cpuMarks []int, handle func([]flow.Record)) (*delivery, error) {
	in := lr.in
	coll, err := ipfix.NewCollector("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("udp", coll.Addr().String())
	if err != nil {
		coll.Close()
		return nil, err
	}
	defer conn.Close()

	d := &delivery{
		epoch:     epoch,
		sendAt:    make([]int64, len(in.dgrams)),
		handoffAt: make([]int64, len(in.dgrams)),
		cpuAt:     make([]time.Duration, len(cpuMarks)),
	}
	if shape.rate > 0 {
		d.late = make([]int64, len(in.dgrams))
	}
	// progress carries at most one pending wake-up: the handler never
	// blocks on it and the sender re-reads the delivered count anyway.
	progress := make(chan struct{}, 1)
	calls := 0
	runDone := make(chan error, 1)
	go func() {
		runDone <- coll.Run(func(recs []flow.Record) {
			if calls >= shape.stampFrom && calls < len(d.handoffAt) {
				d.handoffAt[calls] = d.since()
			}
			calls++
			handle(recs)
			d.delivered.Add(uint64(len(recs)))
			d.lastDelivery.Store(d.since())
			select {
			case progress <- struct{}{}:
			default:
			}
		})
	}()
	lr.coll.Store(coll)
	defer lr.coll.Store(nil)

	timer := time.NewTimer(progressTimeout)
	defer timer.Stop()
	// writtenOff counts records the sender gave up waiting for.
	var writtenOff uint64
	outstanding := func() uint64 {
		done := d.delivered.Load() + writtenOff
		if done >= d.sent {
			return 0
		}
		return d.sent - done
	}
	// awaitProgress blocks until a delivery is signalled; after
	// progressTimeout without one it writes everything in flight off.
	awaitProgress := func() {
		before := d.delivered.Load()
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(progressTimeout)
		select {
		case <-progress:
		case <-timer.C:
			if d.delivered.Load() == before {
				writtenOff += outstanding()
			}
		}
	}

	window := uint64(windowDatagrams * recsPerDatagram)
	mark := 0
	d.firstSend = d.since()
	start := d.epoch.Add(time.Duration(d.firstSend))
	for k, msg := range in.dgrams {
		first := k * recsPerDatagram
		for mark < len(cpuMarks) && first >= cpuMarks[mark] {
			d.cpuAt[mark] = processCPU()
			mark++
		}
		if shape.rate > 0 {
			due := start.Add(dueOffset(k, recsPerDatagram, shape.rate))
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			d.sendAt[k] = int64(due.Sub(d.epoch))
		}
		// The window binds the open loop too: a sender that fell behind
		// (a scheduling stall) catches up as fast as the path accepts,
		// never in a burst the socket buffer would drop. Latency counts
		// from the due time, so the delay is charged, not hidden.
		for outstanding() >= window {
			w0 := time.Now()
			awaitProgress()
			d.stall += time.Since(w0)
		}
		if shape.rate > 0 {
			d.late[k] = max(d.since()-d.sendAt[k], 0)
		} else {
			d.sendAt[k] = d.since()
		}
		if _, err := conn.Write(msg); err != nil {
			coll.Close()
			<-runDone
			return nil, fmt.Errorf("sending datagram %d: %w", k, err)
		}
		d.sent += uint64(min(recsPerDatagram, len(in.recs)-first))
	}
	for ; mark < len(cpuMarks); mark++ {
		d.cpuAt[mark] = processCPU()
	}
	for outstanding() > 0 {
		awaitProgress()
	}

	if err := coll.Close(); err != nil {
		<-runDone
		return nil, err
	}
	if err := <-runDone; err != nil {
		return nil, err
	}
	d.stats = coll.Stats()
	return d, nil
}

// livePass is one full pass: a delivery into a fresh detection
// service, and what the service's alerts looked like against the
// reference.
type livePass struct {
	*delivery
	// wall runs from the first send until Drain returned.
	wall    time.Duration
	drainAt int64
	// alertAt is, per reference alert, when OnAlert fired (0: never).
	alertAt []atomic.Int64
	// unexpected counts alerts outside the reference set, duplicate
	// repeats of one inside it.
	unexpected, duplicate atomic.Uint64
	ingestErrs            atomic.Uint64
	monitor               classify.MonitorStats
}

func (lr *liveRunner) pass(shape loadShape, cpuMarks []int) (*livePass, error) {
	in := lr.in
	p := &livePass{alertAt: make([]atomic.Int64, len(in.ref))}
	epoch := time.Now()
	svc, err := service.New(service.Options{
		Parallelism: pipelineParallelism,
		OnAlert: func(a classify.Alert) {
			i, ok := in.refIdx[alertKey{a.Victim, a.Minute.Unix()}]
			switch {
			case !ok:
				p.unexpected.Add(1)
			case !p.alertAt[i].CompareAndSwap(0, int64(time.Since(epoch))):
				p.duplicate.Add(1)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	d, err := lr.drive(epoch, shape, cpuMarks, func(recs []flow.Record) {
		if err := svc.Ingest(recs); err != nil {
			p.ingestErrs.Add(1)
		}
	})
	if err != nil {
		svc.Drain()
		return nil, err
	}
	p.delivery = d
	p.drainAt = d.since()
	rep, err := svc.Drain()
	p.wall = time.Duration(d.since() - d.firstSend)
	if err != nil {
		return nil, err
	}
	p.monitor = rep.Monitor
	return p, nil
}

// lost is how many records the pass sent but never handed over.
func (p *livePass) lost() uint64 { return p.sent - min(p.delivered.Load(), p.sent) }

// check compares a pass against the serial reference. With loss the
// alert set legitimately differs, so the comparison is skipped and the
// run flagged instead.
func (p *livePass) check(in *liveInput, res *result) {
	if n := p.lost(); n > 0 {
		res.warnf("%d of %d records lost (%d datagrams shed): alert-oracle comparison skipped", n, p.sent, p.stats.Shed)
		return
	}
	if p.stats.DecodeErrors != 0 || p.stats.NoTemplate != 0 {
		res.failf("collector: %d decode errors, %d no-template drops", p.stats.DecodeErrors, p.stats.NoTemplate)
	}
	if n := p.ingestErrs.Load(); n != 0 {
		res.failf("service refused %d batches", n)
	}
	missing := 0
	for i := range p.alertAt {
		if p.alertAt[i].Load() == 0 {
			missing++
		}
	}
	if missing != 0 || p.unexpected.Load() != 0 || p.duplicate.Load() != 0 {
		res.failf("alerts differ from the serial reference monitor: %d missing, %d unexpected, %d repeated (of %d)",
			missing, p.unexpected.Load(), p.duplicate.Load(), len(in.ref))
	}
	if p.monitor.Records != p.sent || p.monitor.Alerts != uint64(len(in.ref)) {
		res.failf("monitor saw %d records and raised %d alerts, want %d and %d",
			p.monitor.Records, p.monitor.Alerts, p.sent, len(in.ref))
	}
}

// alertParts returns, for every raised reference alert whose
// triggering record lies in [lo, hi), the latency from the instant its
// datagram's latency counts from to OnAlert, in milliseconds — and,
// where the receiver stamped the hand-off, the two parts it splits
// into (which sum to it by construction).
func (p *livePass) alertParts(in *liveInput, lo, hi int) (total, toHandoff, toAlert []float64) {
	for i, a := range in.ref {
		at := p.alertAt[i].Load()
		if a.rec < lo || a.rec >= hi || at == 0 {
			continue
		}
		dg := a.rec / recsPerDatagram
		total = append(total, float64(at-p.sendAt[dg])/1e6)
		if h := p.handoffAt[dg]; h != 0 {
			toHandoff = append(toHandoff, float64(h-p.sendAt[dg])/1e6)
			toAlert = append(toAlert, float64(at-h)/1e6)
		}
	}
	return total, toHandoff, toAlert
}

// never is a stampFrom no handler call reaches.
func (in *liveInput) never() int { return len(in.dgrams) }

func runLiveSaturate(c *runCtx) (*result, error) {
	res := newResult("live_saturate")
	sz := c.size(fullSize)
	in, setupSecs, err := repeatSetup(c.setups(),
		func() (*liveInput, error) { return buildLiveInput(c.seed, sz, 0) }, func(*liveInput) {})
	if err != nil {
		return nil, err
	}
	n := len(in.recs)
	res.Sizes["records"] = float64(n)
	sz.record(res)
	res.Sizes["datagrams"] = float64(len(in.dgrams))
	res.Sizes["reference_alerts"] = float64(len(in.ref))
	lr := &liveRunner{in: in}

	var passes []*livePass
	pass := func(stampFrom int) (time.Duration, error) {
		p, err := lr.pass(loadShape{stampFrom: stampFrom}, nil)
		if err != nil {
			return 0, err
		}
		p.check(in, res)
		passes = append(passes, p)
		return p.wall, nil
	}
	if _, err := pass(in.never()); err != nil { // warm-up
		return nil, err
	}
	passes = passes[:0]

	if !c.trace {
		if _, err := measureFor(c.budget(1), func(int) (time.Duration, error) { return pass(in.never()) }); err != nil {
			return nil, err
		}
		var rates, p50s, pooled, stalls []float64
		for _, p := range passes {
			res.Attempted += p.sent
			res.Failed += p.lost()
			rates = append(rates, float64(p.delivered.Load())/p.wall.Seconds())
			stalls = append(stalls, p.stall.Seconds()/p.wall.Seconds())
			lat, _, _ := p.alertParts(in, 0, n)
			if len(lat) == 0 {
				return nil, fmt.Errorf("pass raised no reference alert: nothing to time")
			}
			p50s = append(p50s, median(lat))
			pooled = append(pooled, lat...)
		}
		if s := median(stalls); s < minStallFrac {
			res.warnf("sender waited on its window only %.2f of the time: the generator may be the bottleneck", s)
		}
		res.endToEnd(setupSecs, rates, float64(in.wireBytes)/float64(n), p50s, pooled, "alerts")
		return res, nil
	}

	m := startMeter(lr.queueDepth)
	plain, withStamps, err := alternate(c.budget(0.6),
		func(int) (time.Duration, error) { return pass(in.never()) },
		func(int) (time.Duration, error) { return pass(0) })
	if err != nil {
		return nil, err
	}
	cost := m.finish()
	cost.addTo(res, uint64(n*len(passes)))
	res.add("ipfix.queue_depth_max", float64(cost.ProbeMax))
	res.add("bench.trace_overhead_frac", overhead(plain, withStamps))

	var toHandoff, toAlert, stalls []float64
	var shed, lostSeq uint64
	for _, p := range passes {
		res.Attempted += p.sent
		res.Failed += p.lost()
		shed += p.stats.Shed
		lostSeq += p.stats.LostRecords()
		stalls = append(stalls, p.stall.Seconds()/p.wall.Seconds())
		// Only the stamped passes yield the two parts.
		_, h, a := p.alertParts(in, 0, n)
		toHandoff = append(toHandoff, h...)
		toAlert = append(toAlert, a...)
	}
	res.add("bench.sender_stall_frac", stalls...)
	res.add("ipfix.shed_datagrams", float64(shed))
	res.add("ipfix.lost_records", float64(lostSeq))
	emitAlertParts(res, toHandoff, toAlert)
	return res, lr.isolate(c, res)
}

// emitAlertParts reports the two halves of alert latency the traced
// receiver separates.
func emitAlertParts(res *result, toHandoff, toAlert []float64) {
	note := fmt.Sprintf("%d alerts", len(toAlert))
	if len(toAlert) == 0 {
		res.warnf("no alert fell into the traced part of the stream")
		toHandoff, toAlert = []float64{0}, []float64{0}
	}
	res.addNoted("ipfix.arrival_to_handoff_ms_p50", note, median(toHandoff))
	res.addNoted("ipfix.arrival_to_handoff_ms_p99", note, percentileOf(toHandoff, 99))
	res.addNoted("service.handoff_to_alert_ms_p50", note, median(toAlert))
	res.addNoted("service.handoff_to_alert_ms_p99", note, percentileOf(toAlert, 99))
}

func runLivePaced(c *runCtx) (*result, error) {
	res := newResult("live_paced")
	leadIn := pacedLeadIn
	if c.smoke {
		leadIn = pacedLeadIn / 5
	}
	share := 1.0
	if c.trace {
		share = 0.7 // leave room for the layer-by-layer passes
	}
	measured := int(c.seconds * share * pacedRate)
	want := leadIn + measured + pacedTail
	// The other workloads' traffic, as many days of it as the stream
	// needs: generation stops once it is long enough.
	sz := c.size(fullSize)
	sz.days = want/sz.perDay + 2
	in, setupSecs, err := repeatSetup(c.setups(),
		func() (*liveInput, error) { return buildLiveInput(c.seed, sz, want) }, func(*liveInput) {})
	if err != nil {
		return nil, err
	}
	res.Sizes["records"] = float64(want)
	res.Sizes["lead_in_records"] = float64(leadIn)
	res.Sizes["measured_records"] = float64(measured)
	res.Sizes["tail_records"] = pacedTail
	res.Sizes["rate_rec_per_s"] = pacedRate
	sz.record(res)
	lr := &liveRunner{in: in}

	lo, hi := leadIn, leadIn+measured
	shape := loadShape{rate: pacedRate, stampFrom: in.never()}
	var marks []int
	mid := lo
	if c.trace {
		// First half of the window unstamped, second half stamped: the
		// CPU the two halves cost is the tracing overhead.
		mid = (lo + measured/2) / recsPerDatagram * recsPerDatagram
		shape.stampFrom = mid / recsPerDatagram
		marks = []int{lo, mid, hi}
	}
	settle()
	m := startMeter(lr.queueDepth)
	p, err := lr.pass(shape, marks)
	if err != nil {
		return nil, err
	}
	cost := m.finish()
	p.check(in, res)
	res.Attempted = p.sent
	res.Failed = p.lost()

	lat, toHandoff, toAlert := p.alertParts(in, lo, hi)
	if len(lat) == 0 {
		return nil, fmt.Errorf("no reference alert falls into the measured window")
	}
	flushed := 0
	for i, a := range in.ref {
		if a.rec >= lo && a.rec < hi && p.alertAt[i].Load() >= p.drainAt {
			flushed++
		}
	}
	if flushed > 0 {
		res.warnf("%d measured alerts were only raised by the final Drain: the cool-down tail is too short", flushed)
	}
	var late []float64
	for k := lo / recsPerDatagram; k < hi/recsPerDatagram; k++ {
		late = append(late, float64(p.late[k])/1e6)
	}
	lateP99 := percentileOf(late, 99)
	if lateP99 > float64(maxLateness)/1e6 {
		res.warnf("open-loop sender ran %.2f ms late at p99: the schedule, not the system, shaped the latencies", lateP99)
	}

	if !c.trace {
		wall := time.Duration(p.lastDelivery.Load() - p.firstSend)
		res.endToEnd(setupSecs, []float64{float64(p.delivered.Load()) / wall.Seconds()},
			float64(in.wireBytes)/float64(want), []float64{median(lat)}, lat, "alerts")
		return res, nil
	}

	cost.addTo(res, p.sent)
	res.add("ipfix.queue_depth_max", float64(cost.ProbeMax))
	res.add("ipfix.shed_datagrams", float64(p.stats.Shed))
	res.add("ipfix.lost_records", float64(p.stats.LostRecords()))
	res.add("bench.gen_late_ms_p99", lateP99)
	plainCPU, stampedCPU := p.cpuAt[1]-p.cpuAt[0], p.cpuAt[2]-p.cpuAt[1]
	res.add("bench.trace_overhead_frac", float64(stampedCPU-plainCPU)/float64(max(plainCPU, 1)))
	emitAlertParts(res, toHandoff, toAlert)
	return res, lr.isolate(c, res)
}

// isolate drives each layer of the live path alone over the same
// stream: the decoder in a tight loop, the collector with a handler
// that only counts, the fan-out with shards that do nothing, and the
// detection service fed pre-decoded batches in-process.
func (lr *liveRunner) isolate(c *runCtx, res *result) error {
	in := lr.in
	n := float64(len(in.recs))
	perRec := 1e9 / n
	res.add("trafficgen.gen_rec_per_s", float64(in.generated)/in.genWall.Seconds())
	res.add("ipfix.encode_ns_per_rec", float64(in.encodeWall)*perRec/1e9)
	res.add("classify.monitor_add_ns_per_rec", float64(in.monitorWall)*perRec/1e9)
	res.add("classify.matched_frac", float64(in.monStats.Matched)/float64(max(in.monStats.Records, 1)))
	res.add("classify.alerts", float64(in.monStats.Alerts))

	// Decode. The first pass keeps its batches for the service pass.
	batches := make([][]flow.Record, 0, len(in.dgrams))
	var allocs []float64
	decode, err := measureFor(c.budget(0.06), func(i int) (time.Duration, error) {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		dec := ipfix.NewDecoder()
		for _, msg := range in.dgrams {
			recs, err := dec.Decode(msg)
			if err != nil {
				return 0, err
			}
			if i == 0 {
				batches = append(batches, recs)
			}
		}
		wall := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/n)
		return wall, nil
	})
	if err != nil {
		return err
	}
	res.add("ipfix.decode_ns_per_rec", scaled(decode, perRec)...)
	res.add("ipfix.decode_alloc_b_per_rec", allocs...)

	var collRates []float64
	if _, err := measureFor(c.budget(0.08), func(int) (time.Duration, error) {
		d, err := lr.drive(time.Now(), loadShape{stampFrom: in.never()}, nil, func([]flow.Record) {})
		if err != nil {
			return 0, err
		}
		wall := time.Duration(d.lastDelivery.Load() - d.firstSend)
		collRates = append(collRates, float64(d.delivered.Load())/wall.Seconds())
		return wall, nil
	}); err != nil {
		return err
	}
	res.add("ipfix.collector_rec_per_s", collRates...)

	route, err := measureFor(c.budget(0.06), func(int) (time.Duration, error) { return routeRowsOnce(in.recs, recsPerDatagram) })
	if err != nil {
		return err
	}
	res.add("pipe.route_rows_ns_per_rec", scaled(route, perRec)...)

	var calls []int64
	ingest, err := measureFor(c.budget(0.08), func(int) (time.Duration, error) {
		svc, err := service.New(service.Options{Parallelism: pipelineParallelism})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for _, b := range batches {
			c0 := time.Now()
			if err := svc.Ingest(b); err != nil {
				svc.Drain()
				return 0, err
			}
			calls = append(calls, int64(time.Since(c0)))
		}
		_, err = svc.Drain()
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	res.add("service.ingest_ns_per_rec", scaled(ingest, perRec)...)
	res.addNoted("service.ingest_call_ms_p99", fmt.Sprintf("%d calls", len(calls)), percentileOf(msOf(calls), 99))
	return nil
}
