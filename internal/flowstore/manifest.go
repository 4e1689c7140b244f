package flowstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"booterscope/internal/durable"
)

// manifestName is the manifest file at the store root.
const manifestName = "MANIFEST.json"

// manifestVersion guards the on-disk format.
const manifestVersion = 1

// SegmentEntry records one sealed segment in the manifest. Segments not
// listed here are unsealed — the shape a crash leaves behind — and are
// re-scanned, truncated, and adopted on the next Open.
type SegmentEntry struct {
	// Shard is the owning shard index.
	Shard int `json:"shard"`
	// File is the segment file name relative to the shard directory.
	File string `json:"file"`
	// PartitionSec is the partition start (unix seconds).
	PartitionSec int64 `json:"partition_sec"`
	// Records and Blocks count the segment's sealed contents.
	Records uint64 `json:"records"`
	Blocks  uint64 `json:"blocks"`
	// Bytes is the file size including magic and framing.
	Bytes uint64 `json:"bytes"`
	// MinStartSec/MaxStartSec bound the segment's record start times
	// (unix seconds, inclusive) for segment-level pruning.
	MinStartSec int64 `json:"min_start_sec"`
	MaxStartSec int64 `json:"max_start_sec"`
	// Recovered marks segments adopted by crash recovery rather than a
	// clean seal.
	Recovered bool `json:"recovered,omitempty"`
}

// manifest is the store's durable catalog.
type manifest struct {
	Version      int               `json:"version"`
	Shards       int               `json:"shards"`
	BlockRecords int               `json:"block_records"`
	PartitionSec int64             `json:"partition_sec"`
	Meta         map[string]string `json:"meta,omitempty"`
	Segments     []SegmentEntry    `json:"segments"`
}

// save publishes the manifest atomically (durable.Publish: temp file,
// fsync, rename, directory fsync). No failpoint: the fsync/ENOSPC
// injection seam is ROADMAP 1b's, and durable.Publish is where it goes.
func (m *manifest) save(dir string) error {
	sort.Slice(m.Segments, func(i, j int) bool { return segmentBefore(&m.Segments[i], &m.Segments[j]) })
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, manifestName)
	if err := durable.Publish(path, path+".tmp", [][]byte{append(b, '\n')}, nil, "manifest"); err != nil {
		return fmt.Errorf("flowstore: publishing %s: %w", path, err)
	}
	return nil
}

// loadManifest reads the manifest; a missing file returns (nil, nil).
func loadManifest(dir string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("flowstore: corrupt manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("flowstore: manifest version %d not supported", m.Version)
	}
	return &m, nil
}
