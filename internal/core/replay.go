package core

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"booterscope/internal/classify"
	"booterscope/internal/flowstore"
	"booterscope/internal/packet"
	"booterscope/internal/pipe"
	"booterscope/internal/takedown"
	"booterscope/internal/trafficgen"
)

// Archive layout: one flowstore per vantage point under
// <dir>/<vantage-slug>/, each manifest carrying the generation
// parameters in its Meta so replay can reconstruct the analysis window
// without the generator.

// archiveKinds orders the vantage points and their directory slugs.
var archiveKinds = []struct {
	Kind trafficgen.Kind
	Slug string
}{
	{trafficgen.KindIXP, "ixp"},
	{trafficgen.KindTier1, "tier1"},
	{trafficgen.KindTier2, "tier2"},
}

// KindSlug returns the archive directory name of a vantage point.
func KindSlug(k trafficgen.Kind) string {
	for _, ak := range archiveKinds {
		if ak.Kind == k {
			return ak.Slug
		}
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// WriteArchive generates the study's traffic for the given vantage
// points (all three when none are named) and writes one flowstore per
// vantage under dir/<slug>/. The stores are sealed and carry the
// generation parameters in their manifests; OpenReplay reads them back.
//
// Each store is written by its own goroutine, which generates and
// appends its vantage's days in day order, so every store holds the
// bytes a serial write gives it. A vantage named twice is written once.
// The error returned is that of the first failing vantage in kinds
// order; the others' stores are still completed.
func (t *TakedownStudy) WriteArchive(dir string, opts flowstore.Options, kinds ...trafficgen.Kind) error {
	if len(kinds) == 0 {
		for _, ak := range archiveKinds {
			kinds = append(kinds, ak.Kind)
		}
	}
	errs := make([]error, len(kinds))
	var wg sync.WaitGroup
	for i, k := range kinds {
		if slices.Index(kinds, k) < i {
			continue // a repeat of an earlier vantage
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = t.writeStore(filepath.Join(dir, KindSlug(k)), opts, k)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// writeStore writes vantage k's days, in day order, to a new store at
// dir and seals it.
func (t *TakedownStudy) writeStore(dir string, opts flowstore.Options, k trafficgen.Kind) error {
	cfg := t.Scenario.Config()
	opts.Meta = map[string]string{
		"study":    "takedown",
		"vantage":  KindSlug(k),
		"seed":     strconv.FormatUint(cfg.Seed, 10),
		"scale":    strconv.FormatFloat(cfg.Scale, 'g', -1, 64),
		"days":     strconv.Itoa(cfg.Days),
		"start":    cfg.Start.UTC().Format(time.RFC3339),
		"takedown": cfg.Takedown.UTC().Format(time.RFC3339),
	}
	st, err := flowstore.Open(dir, opts)
	if err != nil {
		return fmt.Errorf("core: opening archive store for %v: %w", k, err)
	}
	for day := 0; day < cfg.Days; day++ {
		if err := st.Append(t.Scenario.Day(k, day)); err != nil {
			st.Close()
			return fmt.Errorf("core: archiving %v day %d: %w", k, day, err)
		}
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("core: sealing archive store for %v: %w", k, err)
	}
	return nil
}

// ReplayStudy serves the traffic figures from a stored flow archive;
// Analyze computes all of Section 5.2 for one vantage point in one
// scan. Because every takedown aggregation is order-insensitive and
// exact (integer-valued daily sums, per-key maps), replaying an archive
// yields results identical to the live run that wrote it.
type ReplayStudy struct {
	Event takedown.Event
	dir   string
	// temp marks an archive GenerateReplay wrote: Close removes dir.
	temp   bool
	window takedown.Window
	stores map[trafficgen.Kind]*flowstore.Store
	// Parallelism is the number of workers a replayed analysis runs on,
	// each taking whole days of the archive: 0 resolves to
	// runtime.NumCPU, 1 runs on the caller alone. Results are
	// byte-identical at any setting.
	Parallelism int
}

// par resolves the study's worker count.
func (r *ReplayStudy) par() int { return pipe.Parallelism(r.Parallelism) }

// OpenReplay opens the archive at dir (written by WriteArchive or
// cmd/flowgen -out). At least one vantage store must be present; the
// analysis window comes from the stores' manifest metadata, which must
// agree across vantages.
func OpenReplay(dir string) (*ReplayStudy, error) {
	r := &ReplayStudy{
		Event:  takedown.FBITakedown,
		dir:    dir,
		stores: make(map[trafficgen.Kind]*flowstore.Store),
	}
	first := "" // slug of the store r.window was read from
	for _, ak := range archiveKinds {
		sd := filepath.Join(dir, ak.Slug)
		if _, err := os.Stat(filepath.Join(sd, "MANIFEST.json")); err != nil {
			continue
		}
		st, err := flowstore.Open(sd, flowstore.Options{})
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("core: opening %s store: %w", ak.Slug, err)
		}
		r.stores[ak.Kind] = st
		w, err := windowFromMeta(st.Meta())
		if err != nil {
			r.Close()
			return nil, err
		}
		if first == "" {
			first, r.window = ak.Slug, w
		} else if !w.Start.Equal(r.window.Start) || w.Days != r.window.Days || !w.Takedown.Equal(r.window.Takedown) {
			r.Close()
			return nil, fmt.Errorf("core: archive stores %s and %s disagree on the analysis window (%+v vs %+v)",
				first, ak.Slug, r.window, w)
		}
	}
	if first == "" {
		return nil, fmt.Errorf("core: no vantage stores under %s", dir)
	}
	return r, nil
}

// GenerateReplay generates the scenario opts describes for the given
// vantage points (all three when none are named) into an archive in a
// new temporary directory, and opens it for replay with
// opts.Parallelism workers. It is how a binary without -store.dir
// computes its figures: through the same stored path a flowgen -out
// archive takes. The archive is fsynced, as flowgen -out writes it;
// Close removes it.
func GenerateReplay(opts Options, kinds ...trafficgen.Kind) (*ReplayStudy, error) {
	dir, err := os.MkdirTemp("", "booterscope-archive-")
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	r, err := openGenerated(dir, flowstore.Options{}, opts, kinds)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	r.temp = true
	return r, nil
}

// openGenerated writes the scenario opts describes to an archive at dir
// with the given store options and opens it for replay.
func openGenerated(dir string, store flowstore.Options, opts Options, kinds []trafficgen.Kind) (*ReplayStudy, error) {
	if err := NewTakedownStudy(opts).WriteArchive(dir, store, kinds...); err != nil {
		return nil, err
	}
	r, err := OpenReplay(dir)
	if err != nil {
		return nil, err
	}
	r.Parallelism = opts.Parallelism
	return r, nil
}

// windowFromMeta reconstructs the analysis window from store metadata.
func windowFromMeta(meta map[string]string) (takedown.Window, error) {
	var w takedown.Window
	start, err := time.Parse(time.RFC3339, meta["start"])
	if err != nil {
		return w, fmt.Errorf("core: archive meta start: %w", err)
	}
	td, err := time.Parse(time.RFC3339, meta["takedown"])
	if err != nil {
		return w, fmt.Errorf("core: archive meta takedown: %w", err)
	}
	days, err := strconv.Atoi(meta["days"])
	if err != nil || days <= 0 {
		return w, fmt.Errorf("core: archive meta days %q invalid", meta["days"])
	}
	return takedown.Window{Start: start.UTC(), Days: days, Takedown: td.UTC()}, nil
}

// Window returns the archive's analysis window.
func (r *ReplayStudy) Window() takedown.Window { return r.window }

// Kinds lists the vantage points present in the archive.
func (r *ReplayStudy) Kinds() []trafficgen.Kind {
	var out []trafficgen.Kind
	for _, ak := range archiveKinds {
		if _, ok := r.stores[ak.Kind]; ok {
			out = append(out, ak.Kind)
		}
	}
	return out
}

// Store exposes one vantage's archive (nil when absent).
func (r *ReplayStudy) Store(k trafficgen.Kind) *flowstore.Store { return r.stores[k] }

// partitionScan is a takedown.Scanner over one vantage store:
// ScanPartitions hands each worker whole days, which it decodes and
// feeds to its own stages inline. The sparse indexes prune with q.
type partitionScan struct {
	st *flowstore.Store
	q  flowstore.Query
}

// Scan implements takedown.Scanner.
func (p partitionScan) Scan(workers int, emit func(w int, b *pipe.Batch) error) error {
	_, err := p.st.ScanPartitions(p.q, workers, emit)
	return err
}

// scan returns the partition scan of vantage k's store for q.
func (r *ReplayStudy) scan(k trafficgen.Kind, q flowstore.Query) (partitionScan, error) {
	st, ok := r.stores[k]
	if !ok {
		return partitionScan{}, fmt.Errorf("core: archive has no %v store", k)
	}
	return partitionScan{st, q}, nil
}

// triggerPorts are the reflector dst ports Figure 4 sums over.
func triggerPorts() []uint16 {
	ports := make([]uint16, 0, len(takedown.ReflectorVectors))
	for _, v := range takedown.ReflectorVectors {
		ports = append(ports, v.Port())
	}
	return ports
}

// Analyze computes Figure 4, Figure 5, and the robustness ablation for
// one vantage point in a single scan of the archive — one pipeline
// pass instead of one per figure. The scan keeps UDP records with a
// reflector port on either side: a superset of everything the stages
// consume (trigger traffic has a reflector dst port, amplified NTP
// responses have src port 123), so the filter cannot change the
// result while sparing the stages the bulk of background traffic.
func (r *ReplayStudy) Analyze(k trafficgen.Kind) (*takedown.Analysis, error) {
	sc, err := r.scan(k, flowstore.Query{
		Protocols:   []uint8{packet.IPProtoUDP},
		PortsEither: triggerPorts(),
		// Union of the trigger and counter stages' reads — end times
		// and AS numbers stay on disk, which the replay_analyze
		// benchmark workload leans on.
		Project: flowstore.ColSrcAddr | flowstore.ColDstAddr |
			flowstore.ColSrcPort | flowstore.ColDstPort | flowstore.ColProto |
			flowstore.ColCounters | flowstore.ColStartSec,
	})
	if err != nil {
		return nil, err
	}
	return takedown.Analyze(sc, r.window, k, r.par())
}

// Figure2a builds the Section 4 NTP packet size distribution from the
// archived IXP view. The histogram's src-port-or-dst-port NTP match is
// exactly the PortsEither predicate.
func (r *ReplayStudy) Figure2a() (*PacketSizeDistribution, error) {
	sc, err := r.scan(trafficgen.KindIXP, flowstore.Query{
		PortsEither: []uint16{classify.NTPPort},
	})
	if err != nil {
		return nil, err
	}
	return figure2aSource(sc, r.par())
}

// Figure2bc classifies NTP amplification victims at one vantage point
// from the archive. The classifier only accepts UDP records, so the
// scan prunes non-UDP blocks without changing the result.
//
//bsvet:allow deadcode oracle: TestReplayMatchesLive compares the replay with the live study
func (r *ReplayStudy) Figure2bc(k trafficgen.Kind) (*VantageVictims, error) {
	sc, err := r.scan(k, flowstore.Query{Protocols: []uint8{packet.IPProtoUDP}})
	if err != nil {
		return nil, err
	}
	return figure2bcSource(sc, k, r.par())
}

// AllVantages runs Figure2bc for every vantage point in the archive.
func (r *ReplayStudy) AllVantages() ([]*VantageVictims, error) {
	var out []*VantageVictims
	for _, k := range r.Kinds() {
		v, err := r.Figure2bc(k)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Close closes every vantage store, and removes the archive when
// GenerateReplay wrote it.
func (r *ReplayStudy) Close() error {
	var firstErr error
	for _, st := range r.stores {
		if err := st.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if r.temp {
		if err := os.RemoveAll(r.dir); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
