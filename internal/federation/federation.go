// Package federation is the query plane over N independent per-vantage
// flowstore archives — the paper's methodological core (correlating a
// major IXP, a tier-1 ISP, and a tier-2 ISP) as infrastructure.
//
// A Coordinator opens every vantage store named by a manifest
// (vantages.json), fans flowstore queries out across them with bounded
// parallelism, and funnels the per-vantage cursors through the k-way
// time-ordered merge into ONE deterministic stream: ascending start
// time, ties broken by vantage name, then by each store's own
// (shard, ingest-order) tie-break. Per-vantage ScanStats aggregate
// into a FederatedStats view exported via telemetry and the debug
// server's /vantages endpoint.
//
// On top of the merged plane sits cross-vantage correlation: Correlate
// runs one serial classify.Monitor per vantage archive, joins
// the resulting attack logs by (victim, time-overlap) — widened by the
// vantages' clock-skew bounds — and reports each attack's SeenAt /
// MissingAt vantage sets. "Seen at the IXP, missing at the tier-1
// ISP" is a first-class query (ddoswatch -federate -correlate), and
// each join emits a federation_attack_joined flight-recorder event.
//
// Determinism contract: with fixed archives and a fixed manifest,
// Scan delivers the identical record sequence on every run and
// Correlate the identical report, independent of MaxParallel —
// same property the single-store pipeline pins, lifted across stores.
package federation

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Vantage is one collector archive in a federation manifest.
type Vantage struct {
	// Name is the unique vantage identifier; it is the tie-break key
	// of the merged stream, so renaming a vantage reorders equal-time
	// records deterministically but differently.
	Name string `json:"name"`
	// Tier labels the vantage class for reporting (ixp, tier-1 isp,
	// tier-2 isp, ...).
	Tier string `json:"tier"`
	// Dir is the vantage's flowstore directory; relative paths resolve
	// against the manifest file's directory.
	Dir string `json:"dir"`
	// ClockSkewMaxSeconds bounds the vantage collector's clock error.
	// The correlation join widens attack time-overlap matching by the
	// two sides' combined bounds, so attacks split across skewed
	// collectors still join.
	ClockSkewMaxSeconds int64 `json:"clock_skew_max_seconds"`
}

// Manifest lists the vantage archives of one federation, sorted by
// name (Load and Save both normalize the order).
type Manifest struct {
	Vantages []Vantage `json:"vantages"`
}

// normalize sorts vantages by name and validates the manifest.
func (m *Manifest) normalize() error {
	if len(m.Vantages) == 0 {
		return fmt.Errorf("federation: manifest lists no vantages")
	}
	sort.Slice(m.Vantages, func(i, j int) bool { return m.Vantages[i].Name < m.Vantages[j].Name })
	seen := make(map[string]bool, len(m.Vantages))
	for i := range m.Vantages {
		v := &m.Vantages[i]
		if v.Name == "" {
			return fmt.Errorf("federation: vantage %d has no name", i)
		}
		if seen[v.Name] {
			return fmt.Errorf("federation: duplicate vantage name %q", v.Name)
		}
		seen[v.Name] = true
		if v.Dir == "" {
			return fmt.Errorf("federation: vantage %q has no store dir", v.Name)
		}
		if v.ClockSkewMaxSeconds < 0 {
			return fmt.Errorf("federation: vantage %q has negative clock-skew bound", v.Name)
		}
	}
	return nil
}

// LoadManifest reads and validates a vantages.json. Relative store
// directories are resolved against the manifest's own directory, so a
// manifest travels with its archives.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("federation: reading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("federation: parsing manifest %s: %w", path, err)
	}
	base := filepath.Dir(path)
	for i := range m.Vantages {
		if d := m.Vantages[i].Dir; d != "" && !filepath.IsAbs(d) {
			m.Vantages[i].Dir = filepath.Join(base, d)
		}
	}
	if err := m.normalize(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Save writes the manifest as indented JSON (archive writers call it
// next to the stores they emit). Vantage order is normalized first so
// saved manifests are canonical.
func (m *Manifest) Save(path string) error {
	if err := m.normalize(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
