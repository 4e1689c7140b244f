package federation

import (
	"cmp"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"time"

	"booterscope/internal/classify"
	"booterscope/internal/flow"
	"booterscope/internal/flowstore"
	"booterscope/internal/telemetry/eventlog"
)

// CorrelateOptions configures a cross-vantage correlation run.
type CorrelateOptions struct {
	// Query bounds the scan window and filters fed to every vantage's
	// classifier (zero value = whole archives).
	Query flowstore.Query
	// Config is the classification thresholds applied at every vantage.
	Config classify.Config
	// Retention / ReAlertAfter tune the per-vantage monitors (0 keeps
	// the monitor defaults).
	Retention    time.Duration
	ReAlertAfter time.Duration
	// Events receives the serial post-join federation events; nil
	// falls back to the process-wide recorder (which may itself be
	// nil — recording off). The concurrent per-vantage classification
	// runs deliberately do NOT emit into a shared recorder: their
	// interleaving is nondeterministic, and the correlator's contract
	// is a deterministic event stream.
	Events *eventlog.Log
}

// vantageObservation is one vantage's view of a correlated attack.
type vantageObservation struct {
	Vantage string                 `json:"vantage"`
	Tier    string                 `json:"tier"`
	Summary classify.AttackSummary `json:"summary"`
}

// CorrelatedAttack is one attack joined across vantages by
// (victim, time-overlap). SeenAt lists the vantages whose classifier
// saw the victim cross the attack thresholds; MissingAt lists every
// other federation vantage — the paper's central observable, where a
// booter attack is plainly visible at the IXP yet absent from a
// tier-1 ISP's sampled view. Both lists are in federation (name)
// order.
type CorrelatedAttack struct {
	// ID is the join's stable identifier, dense from 1 in report
	// order; the federation_attack_joined event carries it.
	ID              uint64     `json:"id"`
	Victim          netip.Addr `json:"victim"`
	FirstMinuteUnix int64      `json:"first_minute_unix"`
	LastMinuteUnix  int64      `json:"last_minute_unix"`
	SeenAt          []string   `json:"seen_at"`
	MissingAt       []string   `json:"missing_at"`
	// PerVantageRate maps vantage name to the peak rate (Gbps, scaled
	// for sampling) that vantage observed for this attack; vantages
	// with no observation at all are absent from the map.
	PerVantageRate map[string]float64 `json:"per_vantage_rate"`
	// Observations holds each observing vantage's full summary, in
	// federation order.
	Observations []vantageObservation `json:"observations"`
	// Disagreement marks the headline shape: crossed somewhere,
	// missing somewhere else.
	Disagreement bool `json:"disagreement"`
}

// VantageClassification is one vantage's classification pass summary.
type VantageClassification struct {
	Name string `json:"name"`
	Tier string `json:"tier"`
	// Attacks counts the vantage's logged attacks in the window;
	// Crossed counts those that passed the alert thresholds.
	Attacks int                 `json:"attacks"`
	Crossed int                 `json:"crossed"`
	Stats   flowstore.ScanStats `json:"stats"`
}

// CorrelationReport is the result of one Correlate run.
type CorrelationReport struct {
	Attacks    []CorrelatedAttack      `json:"attacks"`
	PerVantage []VantageClassification `json:"per_vantage"`
	// Disagreements counts attacks with a non-empty MissingAt.
	Disagreements int `json:"disagreements"`
}

// vantageRun is one vantage's classification output, indexed like
// c.vantages.
type vantageRun struct {
	log   []classify.AttackSummary
	stats flowstore.ScanStats
	err   error
}

// Correlate runs one serial streaming classifier over every vantage
// archive (at most Options.MaxParallel at once) and joins the resulting
// attack logs by (victim, time-overlap). Two observations of one
// victim join when their minute intervals — widened by one minute of
// bin granularity plus each side's clock-skew bound — overlap.
// Attacks where no vantage crossed the thresholds are dropped as
// noise. The report is deterministic: same archives, same manifest,
// same options — identical report at any MaxParallel.
func (c *Coordinator) Correlate(opts CorrelateOptions) (*CorrelationReport, error) {
	metricCorrelations.Inc()
	runs := make([]vantageRun, len(c.vantages))
	sem := make(chan struct{}, maxParallel(c.opts.MaxParallel, len(c.vantages)))
	var wg sync.WaitGroup
	for i := range c.vantages {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			runs[i] = classifyStream(opts, mergeScan(c.vantages[i].store))
		}(i)
	}
	wg.Wait()
	for i := range runs {
		if runs[i].err != nil {
			return nil, runs[i].err
		}
		metricClassifiedVantages.Inc()
	}

	report := c.join(runs)
	ev := opts.Events
	if ev == nil {
		ev = eventlog.Active()
	}
	if ev != nil {
		emitJoinEvents(ev, report)
	}
	metricCorrelatedAttacks.Add(uint64(len(report.Attacks)))
	metricDisagreements.Add(uint64(report.Disagreements))
	return report, nil
}

// emitJoinEvents records the report on ev: one event per vantage, then
// one per joined attack. Correlate calls it only with a recorder, so a
// run without one builds no attribute.
func emitJoinEvents(ev *eventlog.Log, report *CorrelationReport) {
	for _, pv := range report.PerVantage {
		ev.Emit("federation", "federation_vantage_classified", 0,
			eventlog.A("vantage", pv.Name),
			eventlog.A("tier", pv.Tier),
			eventlog.AInt("attacks", int64(pv.Attacks)),
			eventlog.AInt("crossed", int64(pv.Crossed)),
			eventlog.AUint("records", pv.Stats.RecordsMatched))
	}
	for _, a := range report.Attacks {
		attrs := []eventlog.Attr{
			eventlog.A("victim", a.Victim.String()),
			eventlog.A("seen_at", strings.Join(a.SeenAt, ",")),
			eventlog.A("missing_at", strings.Join(a.MissingAt, ",")),
			eventlog.AInt("first_minute_unix", a.FirstMinuteUnix),
			eventlog.AInt("last_minute_unix", a.LastMinuteUnix),
		}
		for _, obs := range a.Observations {
			attrs = append(attrs, eventlog.AFloat("gbps_"+obs.Vantage, obs.Summary.PeakGbps))
		}
		ev.Emit("federation", "federation_attack_joined", a.ID, attrs...)
	}
}

func maxParallel(n, vantages int) int {
	if n <= 0 || n > vantages {
		n = vantages
	}
	if n < 1 {
		n = 1
	}
	return n
}

// monitorColumns is what the monitor reads of a record: both addresses
// (bins, source sets), the source port and protocol (the reflection
// filters), the counters (average packet size, scaled bytes) and the
// start time (minute bins, the clock, the merge order). Destination
// ports, end times and AS numbers are never decoded.
const monitorColumns = flowstore.ColSrcAddr | flowstore.ColDstAddr | flowstore.ColSrcPort |
	flowstore.ColProto | flowstore.ColCounters | flowstore.ColStart

// orderedScan is one vantage store's ordered scan in flowstore.MergeScan's
// shape: fn receives the merge's runs, rows [lo, hi) of a shard
// scanner's own decoded slab, valid for the duration of the call.
type orderedScan func(flowstore.Query, func(i int, cols *flow.Columns, lo, hi int) error) ([]flowstore.ScanStats, error)

// mergeScan is store's ordered scan.
func mergeScan(store *flowstore.Store) orderedScan {
	return func(q flowstore.Query, fn func(int, *flow.Columns, int, int) error) ([]flowstore.ScanStats, error) {
		return flowstore.MergeScan([]*flowstore.Store{store}, q, fn)
	}
}

// classifyStream runs scan, run by run and with no copy after decode,
// through one fresh serial monitor with attack-log tracking. The
// monitor's clock makes it order-sensitive, hence the ordered merge,
// not ScanPartitions' unsorted blocks. It gets no recorder, so it emits
// no lifecycle events (see CorrelateOptions.Events).
func classifyStream(opts CorrelateOptions, scan orderedScan) vantageRun {
	m := classify.NewMonitor(opts.Config)
	if opts.Retention > 0 {
		m.Retention = opts.Retention
	}
	if opts.ReAlertAfter > 0 {
		m.ReAlertAfter = opts.ReAlertAfter
	}
	m.TrackAttackLog = true
	q := opts.Query
	q.Project = monitorColumns
	var t classify.Tally
	stats, err := scan(q, func(_ int, cols *flow.Columns, lo, hi int) error {
		m.AddCols(cols, lo, hi, &t)
		return nil
	})
	m.Count(&t)
	if err != nil {
		return vantageRun{err: err}
	}
	return vantageRun{log: m.AttackLog(), stats: stats[0]}
}

// obsRef is one vantage's attack summary during the join. seq is its
// index in the vantages' concatenated logs: it orders vantages as the
// federation does and, within one, keeps a vantage's same-victim
// summaries with equal first minutes in attack-log order. hi, lo and
// bits are the victim's 16-byte form and BitLen, so the sort compares
// victims as netip.Addr.Compare does without reading the summary
// (victims are canonical and carry no zone).
type obsRef struct {
	hi, lo  uint64
	first   int64
	bits    int32
	vantage int32
	seq     int
	sum     *classify.AttackSummary
}

func (o obsRef) sameVictim(p obsRef) bool { return o.hi == p.hi && o.lo == p.lo && o.bits == p.bits }

// cmpObs orders refs by (victim, first minute, vantage, attack-log
// order).
func cmpObs(a, b obsRef) int {
	if c := cmp.Compare(a.bits, b.bits); c != 0 {
		return c
	}
	if c := cmp.Compare(a.hi, b.hi); c != 0 {
		return c
	}
	if c := cmp.Compare(a.lo, b.lo); c != 0 {
		return c
	}
	if c := cmp.Compare(a.first, b.first); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// join clusters the per-vantage attack logs by victim and widened
// time overlap and builds the report.
func (c *Coordinator) join(runs []vantageRun) *CorrelationReport {
	report := &CorrelationReport{
		PerVantage: make([]VantageClassification, len(c.vantages)),
	}
	var n int
	for i := range runs {
		n += len(runs[i].log)
	}
	refs := make([]obsRef, 0, n)
	for i := range runs {
		pv := &report.PerVantage[i]
		pv.Name = c.vantages[i].v.Name
		pv.Tier = c.vantages[i].v.Tier
		pv.Stats = runs[i].stats
		for j := range runs[i].log {
			sum := &runs[i].log[j]
			pv.Attacks++
			if sum.Crossed {
				pv.Crossed++
			}
			hi, lo := flow.AddrHalves(sum.Victim)
			refs = append(refs, obsRef{hi: hi, lo: lo, first: sum.FirstMinuteUnix, bits: int32(sum.Victim.BitLen()),
				vantage: int32(i), seq: len(refs), sum: sum})
		}
	}
	slices.SortFunc(refs, cmpObs)

	// Interval sweep: cluster each victim's observations whose widened
	// minute intervals overlap. An observation covering minutes
	// [first, last] spans [first-skew, last+60+skew] seconds.
	var start int
	var clusterEnd int64
	for i, o := range refs {
		skew := c.vantages[o.vantage].v.ClockSkewMaxSeconds
		from := o.first - skew
		to := o.sum.LastMinuteUnix + 60 + skew
		if i > start && (!o.sameVictim(refs[start]) || from > clusterEnd) {
			c.emitCluster(report, refs[start:i])
			start = i
		}
		if i == start || to > clusterEnd {
			clusterEnd = to
		}
	}
	if start < len(refs) {
		c.emitCluster(report, refs[start:])
	}

	// The victim sweep appends in (victim, first minute) order;
	// re-sort to (first minute, victim) — the timeline order the CLI
	// prints — before assigning the dense join IDs.
	slices.SortStableFunc(report.Attacks, func(a, b CorrelatedAttack) int {
		return cmp.Or(cmp.Compare(a.FirstMinuteUnix, b.FirstMinuteUnix), a.Victim.Compare(b.Victim))
	})
	for i := range report.Attacks {
		report.Attacks[i].ID = uint64(i + 1)
		if report.Attacks[i].Disagreement {
			report.Disagreements++
		}
	}
	return report
}

// emitCluster turns one cluster, one victim's overlapping observations,
// into a CorrelatedAttack, dropping clusters no vantage saw cross the
// thresholds. It reorders cluster.
func (c *Coordinator) emitCluster(report *CorrelationReport, cluster []obsRef) {
	crossed := false
	for _, o := range cluster {
		if o.sum.Crossed {
			crossed = true
			break
		}
	}
	if !crossed {
		return
	}
	a := CorrelatedAttack{
		Victim:          cluster[0].sum.Victim,
		FirstMinuteUnix: cluster[0].first,
		LastMinuteUnix:  cluster[0].sum.LastMinuteUnix,
		PerVantageRate:  make(map[string]float64, len(c.vantages)),
	}
	seen := make([]bool, len(c.vantages))
	for _, o := range cluster {
		if o.first < a.FirstMinuteUnix {
			a.FirstMinuteUnix = o.first
		}
		if o.sum.LastMinuteUnix > a.LastMinuteUnix {
			a.LastMinuteUnix = o.sum.LastMinuteUnix
		}
		name := c.vantages[o.vantage].v.Name
		if o.sum.Crossed {
			seen[o.vantage] = true
		}
		if g := o.sum.PeakGbps; g > a.PerVantageRate[name] {
			a.PerVantageRate[name] = g
		}
	}
	// Observations in federation order; within a vantage, the sweep's
	// (first minute, attack-log) order.
	slices.SortStableFunc(cluster, func(a, b obsRef) int { return cmp.Compare(a.vantage, b.vantage) })
	a.Observations = make([]vantageObservation, len(cluster))
	for i, o := range cluster {
		a.Observations[i] = vantageObservation{
			Vantage: c.vantages[o.vantage].v.Name,
			Tier:    c.vantages[o.vantage].v.Tier,
			Summary: *o.sum,
		}
	}
	for i := range c.vantages {
		switch {
		case seen[i]:
			a.SeenAt = append(a.SeenAt, c.vantages[i].v.Name)
		default:
			a.MissingAt = append(a.MissingAt, c.vantages[i].v.Name)
		}
	}
	a.Disagreement = len(a.SeenAt) > 0 && len(a.MissingAt) > 0
	report.Attacks = append(report.Attacks, a)
}
