package main

import (
	"cmp"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"booterscope/internal/core"
	"booterscope/internal/federation"
	"booterscope/internal/flow"
	"booterscope/internal/flowstore"
	"booterscope/internal/pipe"
	"booterscope/internal/takedown"
	"booterscope/internal/trafficgen"
)

// inputSize is how much traffic a workload generates: the generator's
// volume multiplier, the window length in days, and the record count
// every generated day is cut to.
//
// The cut is what makes a workload the same size under every seed. The
// generator draws attack sizes from a Pareto tail with no mean, so a
// handful of giant attacks decide how many records a window holds:
// uncut, thirty days at one scale range over ±15 % in record count and
// ±6 % in stored bytes per record from seed to seed, and every
// throughput and latency number inherits that. A day is generated in
// the order triggers, benign NTP, noise, attacks; keeping its first
// perDay records keeps all of the first three and as many attacks as
// fit. A seed then changes which traffic there is, not how much.
type inputSize struct {
	scale  float64
	days   int
	perDay int
}

var (
	// fullSize is ≈ 10 K background and ≈ 25 K (median) attack records
	// a day before the cut, 600 K records after it.
	fullSize = inputSize{scale: 3, days: 30, perDay: 20000}
	// correlateSize is a third of that as ground truth: three vantages
	// observe it, and Correlate costs several times more per record
	// than Analyze, so this keeps a pass near 0.2 s.
	correlateSize = inputSize{scale: 1, days: 30, perDay: 6700}
	smokeSize     = inputSize{scale: 0.3, days: 30, perDay: 2000}
)

// size picks full or, on a smoke run, the smoke input size.
func (c *runCtx) size(full inputSize) inputSize {
	if c.smoke {
		return smokeSize
	}
	return full
}

func (sz inputSize) record(res *result) {
	res.Sizes["scale"] = sz.scale
	res.Sizes["days"] = float64(sz.days)
	res.Sizes["records_per_day_cap"] = float64(sz.perDay)
}

// newScenario centres a window of sz.days on the takedown date, the
// shape every replay benchmark of this repo has used: the before/after
// tests need days on both sides of the event.
func newScenario(seed uint64, sz inputSize) *trafficgen.Scenario {
	return trafficgen.NewScenario(trafficgen.Config{
		Start:    core.TakedownDate.Add(-time.Duration(sz.days/2) * 24 * time.Hour),
		Days:     sz.days,
		Takedown: core.TakedownDate,
		Seed:     seed,
		Scale:    sz.scale,
	})
}

func cut(recs []flow.Record, n int) []flow.Record { return recs[:min(len(recs), n)] }

// tier2Days generates the tier-2 vantage's days, each cut to sz.perDay
// records in generation order, until the window ends or — with want >
// 0 — at least want records exist. It also returns how long
// Scenario.Day alone took and how many records it produced.
func tier2Days(sc *trafficgen.Scenario, sz inputSize, want int) (days [][]flow.Record, gen time.Duration, generated int) {
	for d, have := 0, 0; d < sz.days && (want <= 0 || have < want); d++ {
		t0 := time.Now()
		day := sc.Day(vantage, d)
		gen += time.Since(t0)
		generated += len(day)
		day = cut(day, sz.perDay)
		days = append(days, day)
		have += len(day)
	}
	return days, gen, generated
}

// sortByStart returns recs in start-time order (stable, so equal
// times keep generation order). It sorts an index on extracted keys
// and permutes once: comparing 150-byte records in place costs several
// times more.
func sortByStart(recs []flow.Record) []flow.Record {
	keys := make([]int64, len(recs))
	idx := make([]int32, len(recs))
	for i := range recs {
		keys[i] = recs[i].Start.UnixNano()
		idx[i] = int32(i)
	}
	slices.SortStableFunc(idx, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
	out := make([]flow.Record, len(recs))
	for i, j := range idx {
		out[i] = recs[j]
	}
	return out
}

// sortedStream concatenates days into one start-time-ordered stream.
// Each day is sorted on its own first (what ingest_archive appends);
// the final pass only has to fix records at day boundaries.
func sortedStream(days [][]flow.Record) []flow.Record {
	all := make([]flow.Record, 0, totalLen(days))
	for _, day := range days {
		all = append(all, sortByStart(day)...)
	}
	return sortByStart(all)
}

func totalLen(days [][]flow.Record) (n int) {
	for _, day := range days {
		n += len(day)
	}
	return n
}

// archiveMeta is the manifest metadata core.OpenReplay rebuilds the
// analysis window from — the keys TakedownStudy.WriteArchive writes.
func archiveMeta(cfg trafficgen.Config, study, vantageName string) map[string]string {
	return map[string]string{
		"study":    study,
		"vantage":  vantageName,
		"seed":     strconv.FormatUint(cfg.Seed, 10),
		"scale":    strconv.FormatFloat(cfg.Scale, 'g', -1, 64),
		"days":     strconv.Itoa(cfg.Days),
		"start":    cfg.Start.UTC().Format(time.RFC3339),
		"takedown": cfg.Takedown.UTC().Format(time.RFC3339),
	}
}

// writeStore appends days, one Append each, to a fresh store at dir
// with the store's default options (fsync on seal) and closes it.
func writeStore(dir string, meta map[string]string, days [][]flow.Record) error {
	st, err := flowstore.Open(dir, flowstore.Options{Meta: meta})
	if err != nil {
		return err
	}
	for _, day := range days {
		if err := st.Append(day); err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}

// writeTier2Archive is TakedownStudy.WriteArchive for the tier-2
// vantage over cut days: same layout, same metadata, one Append per
// day in generation order.
func writeTier2Archive(dir string, cfg trafficgen.Config, days [][]flow.Record) error {
	slug := core.KindSlug(vantage)
	return writeStore(filepath.Join(dir, slug), archiveMeta(cfg, "takedown", slug), days)
}

// memorySource streams days as a takedown.Source, a copy of one day
// per batch (the pipeline recycles what it is handed).
func memorySource(days [][]flow.Record) takedown.Source {
	return func(emit func(*pipe.Batch) error) error {
		for _, day := range days {
			if err := emit(pipe.Wrap(slices.Clone(day))); err != nil {
				return err
			}
		}
		return nil
	}
}

// writeFederatedArchive is TakedownStudy.WriteFederatedArchive over
// cut days: each day's shared ground truth is cut to sz.perDay records
// and then observed through every default vantage's visibility and
// sampling model. It returns the manifest with directories resolved.
func writeFederatedArchive(dir string, sc *trafficgen.Scenario, sz inputSize) (*federation.Manifest, error) {
	vants := core.DefaultFederation()
	slices.SortFunc(vants, func(a, b core.FederatedVantage) int { return cmp.Compare(a.View.Name, b.View.Name) })
	perView := make([][][]flow.Record, len(vants))
	for d := 0; d < sz.days; d++ {
		truth, _ := sc.FederatedDay(d, nil)
		truth = cut(truth, sz.perDay)
		for i, v := range vants {
			perView[i] = append(perView[i], v.View.Observe(truth))
		}
	}
	m := &federation.Manifest{}
	for i, v := range vants {
		name := v.View.Name
		if err := writeStore(filepath.Join(dir, name), archiveMeta(sc.Config(), "federation", name), perView[i]); err != nil {
			return nil, err
		}
		m.Vantages = append(m.Vantages, federation.Vantage{
			Name: name, Tier: v.View.Tier, Dir: name, ClockSkewMaxSeconds: v.ClockSkewMaxSeconds,
		})
	}
	path := filepath.Join(dir, "vantages.json")
	if err := m.Save(path); err != nil {
		return nil, err
	}
	return federation.LoadManifest(path)
}
