package flowstore

import (
	"sync"

	"booterscope/internal/telemetry"
)

// Package-level aggregates across every Store in the process, in the
// style of the flow package: stores are created per vantage point and
// per test, so the registry metrics are process-wide sums while each
// Store's Stats() stays an exact per-instance ledger. Registration is
// opt-in via RegisterTelemetry.
var (
	metricIngestRecords    = telemetry.NewCounter()
	metricDroppedRecords   = telemetry.NewCounter()
	metricBlocksWritten    = telemetry.NewCounter()
	metricSegmentsSealed   = telemetry.NewCounter()
	metricBytesWritten     = telemetry.NewCounter()
	metricRecoveredRecords = telemetry.NewCounter()
	metricTruncatedBytes   = telemetry.NewCounter()
	metricBlocksScanned    = telemetry.NewCounter()
	metricBlocksPruned     = telemetry.NewCounter()
	metricSegmentsPruned   = telemetry.NewCounter()
	metricRecordsScanned   = telemetry.NewCounter()
	metricRecordsMatched   = telemetry.NewCounter()
	metricIngestSeconds    = telemetry.NewHistogram()
	metricIngestWait       = telemetry.NewHistogram()
	metricScanSeconds      = telemetry.NewHistogram()
)

// openStores tracks live stores for the bytes-on-disk gauge.
var (
	openMu     sync.Mutex
	openStores = make(map[*Store]struct{})
)

func registerOpen(s *Store) {
	openMu.Lock()
	openStores[s] = struct{}{}
	openMu.Unlock()
}

func unregisterOpen(s *Store) {
	openMu.Lock()
	delete(openStores, s)
	openMu.Unlock()
}

// bytesOnDisk sums the sealed+written bytes of every open store. It
// takes only each store's accounting lock, which no write or fsync is
// ever made under, so a scrape never waits on the disk.
func bytesOnDisk() float64 {
	openMu.Lock()
	stores := make([]*Store, 0, len(openStores))
	for s := range openStores {
		stores = append(stores, s)
	}
	openMu.Unlock()
	var total uint64
	for _, s := range stores {
		s.acct.Lock()
		total += s.onDisk
		s.acct.Unlock()
	}
	return float64(total)
}

// RegisterTelemetry attaches the package's aggregate archive accounting
// to r under the flowstore_* names.
func RegisterTelemetry(r *telemetry.Registry) {
	r.MustRegister("flowstore_ingest_records_total", "flow records handed to Append across all stores", metricIngestRecords)
	r.MustRegister("flowstore_ingest_dropped_records_total", "records lost to write errors or injected faults (accounted, never silent)", metricDroppedRecords)
	r.MustRegister("flowstore_blocks_written_total", "CRC-framed column blocks written", metricBlocksWritten)
	r.MustRegister("flowstore_segments_sealed_total", "segments sealed into manifests", metricSegmentsSealed)
	r.MustRegister("flowstore_bytes_written_total", "segment bytes written including framing", metricBytesWritten)
	r.MustRegister("flowstore_recovered_records_total", "records adopted from unsealed segments by crash recovery", metricRecoveredRecords)
	r.MustRegister("flowstore_truncated_bytes_total", "torn-tail bytes truncated by crash recovery", metricTruncatedBytes)
	r.MustRegister("flowstore_scan_blocks_scanned_total", "blocks decoded by scans", metricBlocksScanned)
	r.MustRegister("flowstore_scan_blocks_pruned_total", "blocks skipped via sparse indexes without decoding", metricBlocksPruned)
	r.MustRegister("flowstore_scan_segments_pruned_total", "segments skipped entirely via manifest time ranges", metricSegmentsPruned)
	r.MustRegister("flowstore_scan_records_total", "records decoded by scans", metricRecordsScanned)
	r.MustRegister("flowstore_scan_matched_records_total", "records matching scan predicates", metricRecordsMatched)
	r.MustRegister("flowstore_ingest_batch_seconds", "Append batch latency", metricIngestSeconds)
	r.MustRegister("flowstore_ingest_wait_seconds", "time Append waited for a shard's flusher to write a block, observed only when a hand-off found every block token in flight", metricIngestWait)
	r.MustRegister("flowstore_scan_seconds", "full Scan call latency", metricScanSeconds)
	r.MustRegister("flowstore_bytes_on_disk", "segment bytes on disk across open stores", bytesOnDisk)
}
