package federation

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"booterscope/internal/flow"
	"booterscope/internal/flowstore"
)

// Options tunes a Coordinator.
type Options struct {
	// MaxParallel bounds how many vantage archives Correlate
	// classifies at once, each on its own goroutine beside that
	// store's shard scanners. <= 0 means all at once.
	// Scan needs no such bound: its per-vantage scans stream lazily
	// under the merge's backpressure, so memory stays proportional to
	// (vantages × shards × batch), not to archive size.
	MaxParallel int
	// Parallelism is ignored: Correlate runs one serial monitor per
	// vantage (ROADMAP 2b deletes the field).
	Parallelism int
	// StoreOptions is passed to flowstore.Open for each vantage store.
	// Geometry (shard count) always comes from the stores' own
	// manifests; this is for knobs like NoSync in tests.
	StoreOptions flowstore.Options
}

// vantageStore pairs one manifest entry with its opened archive.
type vantageStore struct {
	v     Vantage
	store *flowstore.Store
}

// Coordinator is the federated query plane: one handle over every
// vantage archive of a manifest. It is safe for concurrent Scans; the
// stores are read-only while federated.
type Coordinator struct {
	vantages []vantageStore
	opts     Options

	mu sync.Mutex
	//bsvet:guards mu
	last FederatedStats
	//bsvet:guards mu
	hasLast bool
}

// Open opens every vantage store in the manifest (already name-sorted
// by Load/normalize — that order is the merge tie-break). On any
// failure the already-opened stores are closed and the error names the
// vantage.
func Open(m *Manifest, opts Options) (*Coordinator, error) {
	if err := m.normalize(); err != nil {
		return nil, err
	}
	c := &Coordinator{opts: opts}
	for _, v := range m.Vantages {
		st, err := flowstore.Open(v.Dir, opts.StoreOptions)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("federation: opening vantage %q: %w", v.Name, err)
		}
		c.vantages = append(c.vantages, vantageStore{v: v, store: st})
	}
	metricOpenVantages.Add(float64(len(c.vantages)))
	return c, nil
}

// Close closes every vantage store, returning the first error.
func (c *Coordinator) Close() error {
	var firstErr error
	for _, vs := range c.vantages {
		if err := vs.store.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	metricOpenVantages.Add(-float64(len(c.vantages)))
	c.vantages = nil
	return firstErr
}

// Names lists the vantages in federation (merge tie-break) order.
func (c *Coordinator) Names() []string {
	out := make([]string, len(c.vantages))
	for i, vs := range c.vantages {
		out[i] = vs.v.Name
	}
	return out
}

// Vantages returns the manifest entries in federation order.
func (c *Coordinator) Vantages() []Vantage {
	out := make([]Vantage, len(c.vantages))
	for i, vs := range c.vantages {
		out[i] = vs.v
	}
	return out
}

// Store exposes one vantage's archive (nil when the name is unknown).
func (c *Coordinator) Store(name string) *flowstore.Store {
	for _, vs := range c.vantages {
		if vs.v.Name == name {
			return vs.store
		}
	}
	return nil
}

// VantageScan is one vantage's share of a federated scan.
type VantageScan struct {
	Name  string              `json:"name"`
	Tier  string              `json:"tier"`
	Stats flowstore.ScanStats `json:"stats"`
}

// FederatedStats aggregates a federated scan: per-vantage accounting
// in federation order plus the total (ScanStats.Merge over all
// vantages).
type FederatedStats struct {
	PerVantage []VantageScan       `json:"per_vantage"`
	Total      flowstore.ScanStats `json:"total"`
}

// Scan fans q out across every vantage archive and streams the merged
// result to fn in one deterministic global order: ascending record
// start time, ties broken by vantage name (the federation order),
// then by the owning store's (shard, ingest-order) tie-break. fn
// receives the vantage each record came from; its pointer is valid
// only for the duration of the call. A non-nil error from fn — or the
// first vantage scan failure — cancels every vantage's scan cleanly
// and is returned alongside the stats gathered so far.
func (c *Coordinator) Scan(q flowstore.Query, fn func(vantage string, r *flow.Record) error) (FederatedStats, error) {
	metricScans.Inc()
	// Each vantage scan runs its own shard scanners, but their block
	// decode buffers all come from flowstore's process-wide column-block
	// pool, so N concurrent vantages recycle one working set instead of
	// allocating N of them — that reuse is what closed the federated
	// scan's overhead versus a sequential union (BENCH_9).
	q.Project = flowstore.AllColumns // fn is handed whole records
	stores := make([]*flowstore.Store, len(c.vantages))
	for i, vs := range c.vantages {
		stores[i] = vs.store
	}
	var merged uint64
	var r flow.Record // one for the whole scan: fn may let its pointer escape
	stats, mergeErr := flowstore.MergeScan(stores, q, func(i int, cols *flow.Columns, lo, hi int) error {
		for row := lo; row < hi; row++ {
			merged++
			r = cols.Record(row)
			if err := fn(c.vantages[i].v.Name, &r); err != nil {
				return err
			}
		}
		return nil
	})
	fed := FederatedStats{PerVantage: make([]VantageScan, len(c.vantages))}
	for i, vs := range c.vantages {
		fed.PerVantage[i] = VantageScan{Name: vs.v.Name, Tier: vs.v.Tier, Stats: stats[i]}
		fed.Total.Merge(stats[i])
	}
	metricScanRecords.Add(merged)
	if mergeErr != nil {
		metricScanErrors.Inc()
	}
	c.mu.Lock()
	c.last = fed
	c.hasLast = true
	c.mu.Unlock()
	return fed, mergeErr
}

// lastStats returns the most recent federated scan's stats (zero
// value and false before any scan) — the /vantages view.
func (c *Coordinator) lastStats() (FederatedStats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last, c.hasLast
}

// vantageStatus is the /vantages JSON per-archive summary.
type vantageStatus struct {
	Vantage
	Segments int    `json:"segments"`
	Records  uint64 `json:"records"`
	Bytes    uint64 `json:"bytes"`
}

// VantagesHandler serves the federation's debug view: every vantage's
// manifest entry and archive size, plus the last federated scan's
// per-vantage stats. Mount it on the debug server as /vantages.
func (c *Coordinator) VantagesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		type view struct {
			Vantages []vantageStatus `json:"vantages"`
			LastScan *FederatedStats `json:"last_scan,omitempty"`
		}
		var v view
		for _, vs := range c.vantages {
			st := vantageStatus{Vantage: vs.v}
			for _, e := range vs.store.Segments() {
				st.Segments++
				st.Records += e.Records
				st.Bytes += e.Bytes
			}
			v.Vantages = append(v.Vantages, st)
		}
		if last, ok := c.lastStats(); ok {
			v.LastScan = &last
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	})
}
