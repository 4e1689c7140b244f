// Package flowstore is booterscope's embedded, dependency-free flow
// archive: a sharded, time-partitioned, columnar on-disk store for
// flow.Record batches with a pruning scan/query API.
//
// The paper's measurements run over 834B IXP IPFIX flows and 6.6B
// tier-1 NetFlow records; regenerating such windows in memory for every
// analysis caps both window length and scale. The flowstore decouples
// generation/collection from analysis: writers ingest record batches
// through N shard writers (hash of the flow key) into append-only
// segment files — one segment per (shard, time partition) — encoded
// column by column with delta + varint compression and CRC-checked
// block framing. Writes are asynchronous: the files catch up with
// Append at the quiescent points (see Store). Sealing a segment fsyncs
// it and records it in an atomically updated manifest; a crash
// mid-segment leaves an unsealed file that the next Open re-scans,
// truncating the torn tail and adopting every intact block, with the
// damage reported — never silent (see RecoveryReport and the store
// accounting in Stats).
//
// Reads go through Scan: per-block sparse indexes (start-time range,
// destination address range, protocol bitmap) prune non-matching
// blocks without decoding them, per-shard scanners decode and filter in
// parallel, and the shard streams merge into global start-time order,
// so replaying a stored window yields the same analysis results as the
// live generation that produced it.
package flowstore

import (
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"booterscope/internal/chaos"
	"booterscope/internal/flow"
	"booterscope/internal/telemetry/eventlog"
)

// Defaults.
const (
	DefaultShards       = 4
	defaultBlockRecords = 4096
	defaultPartition    = 24 * time.Hour
)

// Options configure a store at creation. Opening an existing store
// reads the geometry from its manifest; the geometry fields here are
// then ignored.
type Options struct {
	// Shards is the number of shard writers (default 4). Records are
	// routed by a hash of their flow key, so one flow's records always
	// land in one shard.
	Shards int
	// BlockRecords is the records-per-block target (default 4096).
	BlockRecords int
	// Partition is the time-partition width (default 24h). A segment
	// never spans partitions, so time-bounded scans prune whole
	// segments from the manifest alone.
	Partition time.Duration
	// NoSync skips the fsync on segment seal — for tests and
	// benchmarks; durable deployments leave it false.
	NoSync bool
	// WriteFault, when set, is the chaos hook crash-recovery tests use
	// to fail a "block-write shard N" or, when NoSync is false, a
	// "segment-fsync shard N". Records of a failed write are counted in
	// Stats().RecordsDropped, never silently lost.
	WriteFault *chaos.Failpoint
	// Meta is arbitrary user metadata stored in the manifest at
	// creation (e.g. generator seed, scale, vantage point) so replay
	// can reconstruct the analysis window.
	Meta map[string]string
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = DefaultShards
	}
	if o.BlockRecords <= 0 {
		o.BlockRecords = defaultBlockRecords
	}
	if o.Partition <= 0 {
		o.Partition = defaultPartition
	}
	return o
}

// Stats is the store's exact ingest accounting. The invariant
// Appended == Durable + Buffered + Dropped holds at every quiescent
// point — every Stats call is one (see Store); chaos tests assert it
// through crashes and injected faults.
type Stats struct {
	// RecordsAppended counts records handed to Append.
	RecordsAppended uint64
	// RecordsDurable counts records in fully written (CRC-framed)
	// blocks.
	RecordsDurable uint64
	// RecordsBuffered counts records staged in open segments' blocks,
	// not yet handed to a flusher.
	RecordsBuffered uint64
	// RecordsDropped counts records lost to write errors or injected
	// faults — accounted, not silent.
	RecordsDropped uint64
	// BlocksWritten, SegmentsSealed, and BytesWritten describe the
	// on-disk result.
	BlocksWritten  uint64
	SegmentsSealed uint64
	BytesWritten   uint64
}

// RecoveryReport describes what Open found in unsealed segments.
type RecoveryReport struct {
	// RecoveredSegments and RecoveredRecords count unsealed segments
	// adopted into the manifest and the intact records inside them.
	RecoveredSegments int
	RecoveredRecords  uint64
	// TornSegments and TruncatedBytes count segments whose tail was
	// torn (partial frame or CRC failure) and the bytes cut.
	TornSegments   int
	TruncatedBytes int64
}

// Store is a flow archive rooted at one directory. A Store is safe for
// one writer goroutine plus any number of concurrent Scan calls.
//
// Stats, Segments, Seal and Close are the quiescent points: there the
// files hold everything appended before, the ledger is exact, and the
// manifest lists only fsynced segments. Scans see the segments sealed
// up to the last quiescent point. A write error is returned by the next
// Append, Seal or Close.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	man    *manifest
	shards []*shardWriter
	// sealing lists the segments handed to flushers for sealing, in seal
	// order; the next quiescent point moves the ones that sealed into man.
	sealing []*segmentWriter
	rec     RecoveryReport
	closed  bool
	// flushers counts the running flusher and syncer goroutines Close
	// joins.
	flushers sync.WaitGroup
	// syncHook, when set, runs on a syncer just before each seal's fsync:
	// tests use it to hold an fsync.
	syncHook func()

	// acct guards the ledger, the bytes-on-disk figure and the first
	// flusher error not yet returned, all of which the flushers update
	// as they write. It is never held across I/O, so a telemetry scrape
	// never waits on a write or an fsync.
	acct sync.Mutex
	//bsvet:guards acct
	stats Stats
	// onDisk is the bytes of the manifest's segments plus those written
	// to open ones so far — the flowstore_bytes_on_disk share of s.
	//bsvet:guards acct
	onDisk uint64
	//bsvet:guards acct
	flushErr error
}

// shardWriter routes one shard's records into per-partition segments
// and owns the shard's flusher and syncer (flusher.go).
type shardWriter struct {
	id       int
	dir      string
	open     map[int64]*segmentWriter // partition start sec -> writer
	segSeq   int
	maxPart  int64
	havePart bool
	// last is the open writer the shard's previous record went to, so a
	// run of records in one partition skips the map; a seal clears it.
	last *segmentWriter

	// jobs carries blocks and seals to the flusher in hand-off order;
	// tokens holds one entry per block handed and not yet written; syncs
	// carries seals from the flusher to the syncer; free carries emptied
	// staging slabs back; pending counts jobs handed but not finished,
	// seals until the syncer is done with them. primed records that the
	// shard's slab budget has been allocated, at its first full block.
	jobs    chan flushJob
	tokens  chan struct{}
	syncs   chan flushJob
	free    chan *flow.Columns
	pending sync.WaitGroup
	primed  bool
}

// sortedParts lists the shard's open partitions in ascending order, so
// that seal order — which error surfaces first, which staging slab is
// reused next — never depends on map iteration.
func (sw *shardWriter) sortedParts() []int64 {
	parts := make([]int64, 0, len(sw.open))
	for p := range sw.open {
		parts = append(parts, p)
	}
	slices.Sort(parts)
	return parts
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvPrimePow[k] is fnvPrime64 to the k-th power.
var fnvPrimePow = func() (p [11]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime64
	}
	return p
}()

// fnv1a folds the low n bytes of v, most significant first, into the
// FNV-1a state h — exactly what hashing them one at a time computes. A
// zero byte leaves h^b == h, so a run of k leading zero bytes (an IPv4
// address's whole high half) is one multiply by prime^k.
func fnv1a(h, v uint64, n int) uint64 {
	v <<= 8 * (8 - n)
	k := min(bits.LeadingZeros64(v)/8, n)
	h *= fnvPrimePow[k]
	v <<= 8 * k
	for ; k < n; k++ {
		h = (h ^ v>>56) * fnvPrime64
		v <<= 8
	}
	return h
}

// fnvV4Src is the FNV-1a state after an IPv4 source's ::ffff: prefix:
// ten zero bytes, then 0xff twice.
var fnvV4Src = fnvV4Prefix(fnvOffset64)

// fnvV4Prefix folds the ::ffff: prefix of an IPv4 address's 16-byte
// form into h: the ten zero bytes are one multiply, the two 0xff bytes
// one step each.
func fnvV4Prefix(h uint64) uint64 {
	h *= fnvPrimePow[10]
	h = (h ^ 0xff) * fnvPrime64
	return (h ^ 0xff) * fnvPrime64
}

// fnvV4 folds the four bytes of v, most significant first, into h.
func fnvV4(h uint64, v uint32) uint64 {
	h = (h ^ uint64(v>>24)) * fnvPrime64
	h = (h ^ uint64(v>>16&0xff)) * fnvPrime64
	h = (h ^ uint64(v>>8&0xff)) * fnvPrime64
	return (h ^ uint64(v&0xff)) * fnvPrime64
}

// shardOf routes a record to a shard by the FNV-1a hash of its flow
// key: source and destination in 16-byte form, both ports big-endian,
// protocol. The hash is fixed (not per-process seeded) so the same
// input always produces the same shard layout — replay determinism
// extends to the bytes on disk. When both 16-byte forms are
// ::ffff:a.b.c.d (IPv4 and IPv4-mapped addresses), their constant
// 12-byte prefixes are folded in closed form and only the variable
// bytes are hashed one at a time.
func shardOf(r *flow.Record, shards int) int {
	shi, slo := flow.AddrHalves(r.Src)
	dhi, dlo := flow.AddrHalves(r.Dst)
	key := uint64(r.SrcPort)<<24 | uint64(r.DstPort)<<8 | uint64(r.Protocol)
	var h uint64
	if shi == 0 && slo>>32 == 0xffff && dhi == 0 && dlo>>32 == 0xffff {
		h = fnvV4(fnvV4Prefix(fnvV4(fnvV4Src, uint32(slo))), uint32(dlo))
		h = fnvV4(h, uint32(key>>8)) // both ports
		h = (h ^ key&0xff) * fnvPrime64
	} else {
		h = fnv1a(fnv1a(fnv1a(fnv1a(fnvOffset64, shi, 8), slo, 8), dhi, 8), dlo, 8)
		h = fnv1a(h, key, 5)
	}
	return int(h % uint64(shards))
}

// Open opens the store at dir, creating it when absent. Opening an
// existing store runs crash recovery: unsealed segment files are
// scanned, torn tails truncated, and intact blocks adopted into the
// manifest before the store accepts reads or writes.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts}
	if man == nil {
		man = &manifest{
			Version:      manifestVersion,
			Shards:       opts.Shards,
			BlockRecords: opts.BlockRecords,
			PartitionSec: int64(opts.Partition / time.Second),
			Meta:         opts.Meta,
		}
		if err := man.save(dir); err != nil {
			return nil, err
		}
	} else {
		// Existing store: geometry comes from the manifest.
		s.opts.Shards = man.Shards
		s.opts.BlockRecords = man.BlockRecords
		s.opts.Partition = time.Duration(man.PartitionSec) * time.Second
	}
	s.man = man
	for i := 0; i < s.opts.Shards; i++ {
		sd := filepath.Join(dir, fmt.Sprintf("shard-%02d", i))
		if err := os.MkdirAll(sd, 0o755); err != nil {
			return nil, err
		}
		s.shards = append(s.shards, &shardWriter{id: i, dir: sd, open: make(map[int64]*segmentWriter)})
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	var onDisk uint64
	for _, e := range s.man.Segments {
		onDisk += e.Bytes
	}
	s.acct.Lock()
	s.onDisk = onDisk
	s.acct.Unlock()
	for _, sw := range s.shards {
		// Blocks are bounded by the tokens; the rest of the queue is room
		// for seals.
		sw.jobs = make(chan flushJob, flushQueue+sealQueue)
		sw.tokens = make(chan struct{}, flushQueue)
		sw.syncs = make(chan flushJob, sealQueue)
		// Room for the slab budget twice over: a shard that briefly had
		// many partitions open keeps a few of their slabs, the collector
		// gets the rest.
		sw.free = make(chan *flow.Columns, 2*shardSlabs)
		s.flushers.Add(2)
		go s.flush(sw)
		go s.syncSeals(sw)
	}
	registerOpen(s)
	return s, nil
}

// recover scans shard directories for segment files the manifest does
// not list, truncates torn tails, and adopts the intact prefix.
func (s *Store) recover() error {
	sealed := make(map[string]bool, len(s.man.Segments))
	for _, e := range s.man.Segments {
		sealed[filepath.Join(fmt.Sprintf("shard-%02d", e.Shard), e.File)] = true
	}
	changed := false
	for _, sw := range s.shards {
		names, err := os.ReadDir(sw.dir)
		if err != nil {
			return err
		}
		for _, de := range names {
			name := de.Name()
			if de.IsDir() || !strings.HasPrefix(name, "seg-") {
				continue
			}
			rel := filepath.Join(fmt.Sprintf("shard-%02d", sw.id), name)
			if sealed[rel] {
				continue
			}
			path := filepath.Join(sw.dir, name)
			scan, err := scanSegmentFile(path)
			if err != nil {
				return fmt.Errorf("flowstore: recovering %s: %w", rel, err)
			}
			if scan.torn {
				if err := os.Truncate(path, scan.validLen); err != nil {
					return fmt.Errorf("flowstore: truncating torn tail of %s: %w", rel, err)
				}
				s.rec.TornSegments++
				s.rec.TruncatedBytes += scan.tornBytes
				metricTruncatedBytes.Add(uint64(scan.tornBytes))
				eventlog.Active().Emit("flowstore", "flowstore_recovery_truncated", 0,
					eventlog.A("file", rel),
					eventlog.AInt("torn_bytes", scan.tornBytes))
			}
			if len(scan.blocks) == 0 {
				// Nothing recoverable: drop the empty shell.
				if err := os.Remove(path); err != nil {
					return err
				}
				changed = true
				continue
			}
			part, seq := parseSegName(name)
			minSec := scan.blocks[0].MinStart.Unix()
			maxSec := scan.blocks[0].MaxStart.Unix()
			for _, b := range scan.blocks[1:] {
				if v := b.MinStart.Unix(); v < minSec {
					minSec = v
				}
				if v := b.MaxStart.Unix(); v > maxSec {
					maxSec = v
				}
			}
			s.man.Segments = append(s.man.Segments, SegmentEntry{
				Shard:        sw.id,
				File:         name,
				PartitionSec: part,
				Records:      scan.records,
				Blocks:       uint64(len(scan.blocks)),
				Bytes:        uint64(scan.validLen),
				MinStartSec:  minSec,
				MaxStartSec:  maxSec,
				Recovered:    true,
			})
			s.rec.RecoveredSegments++
			s.rec.RecoveredRecords += scan.records
			metricRecoveredRecords.Add(scan.records)
			eventlog.Active().Emit("flowstore", "flowstore_recovery_adopted", 0,
				eventlog.A("file", rel),
				eventlog.AUint("records", scan.records))
			changed = true
			if seq >= sw.segSeq {
				sw.segSeq = seq + 1
			}
		}
		// Later segments of a partition must not collide with sealed
		// names either.
		for _, e := range s.man.Segments {
			if e.Shard == sw.id {
				if _, seq := parseSegName(e.File); seq >= sw.segSeq {
					sw.segSeq = seq + 1
				}
			}
		}
	}
	if changed {
		return s.man.save(s.dir)
	}
	return nil
}

// segName formats a segment file name; parseSegName inverts it. The
// sequence number counts every seal a shard writer ever made and
// outgrows its four-digit padding.
func segName(partSec int64, seq int) string {
	return fmt.Sprintf("seg-%d-%04d.fsg", partSec, seq)
}

func parseSegName(name string) (partSec int64, seq int) {
	body := strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".fsg")
	if i := strings.LastIndexByte(body, '-'); i > 0 {
		partSec, _ = strconv.ParseInt(body[:i], 10, 64)
		seq, _ = strconv.Atoi(body[i+1:])
	}
	return partSec, seq
}

// segmentBefore is the order of segments in the manifest and within a
// shard's scan: shard, partition, then seal order — by sequence number,
// not file-name string, which would put seg-…-10000 ahead of seg-…-9999
// and flip the ingest order ordered scans leave equal timestamps in.
func segmentBefore(a, b *SegmentEntry) bool {
	if a.Shard != b.Shard {
		return a.Shard < b.Shard
	}
	if a.PartitionSec != b.PartitionSec {
		return a.PartitionSec < b.PartitionSec
	}
	_, as := parseSegName(a.File)
	_, bs := parseSegName(b.File)
	if as != bs {
		return as < bs
	}
	return a.File < b.File
}

// Recovery reports what the Open-time crash recovery found.
func (s *Store) Recovery() RecoveryReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

// Meta returns the manifest's user metadata.
func (s *Store) Meta() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.man.Meta))
	for k, v := range s.man.Meta {
		out[k] = v
	}
	return out
}

// Dir returns the store's root directory.
//
//bsvet:allow deadcode oracle: TestCrashRecovery and TestHostileSealedSegment locate the segment files with it
func (s *Store) Dir() string { return s.dir }

// mod is a non-negative modulo (records before 1970 still partition).
func mod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// Append routes a batch of records into the shard writers and stages
// them in their open segments; full blocks go to the shards' flushers,
// and the segments a new partition retires go to be sealed. Append waits
// only when flushQueue blocks of a shard are in flight, never for a
// seal's fsync, which the shard's syncer runs (flusher.go).
// Partial failures do not abort the batch: a block an injected fault
// refuses has its records counted dropped, and the first error is
// returned after the batch completes. A real write or fsync error on a
// flusher is returned by the next Append, Seal or Close; the records of
// a block that failed to write are counted dropped.
func (s *Store) Append(records []flow.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("flowstore: store is closed")
	}
	start := time.Now() //bsvet:allow determinism ingest latency telemetry measures host time, not simulated time
	metricIngestRecords.Add(uint64(len(records)))
	psec := int64(s.opts.Partition / time.Second)
	var firstErr error
	for i := range records {
		r := &records[i]
		sw := s.shards[shardOf(r, s.opts.Shards)]
		w := sw.last
		if sec := r.Start.Unix(); w == nil || sec < w.part || sec >= w.part+psec {
			var err error
			w, err = s.segmentFor(sw, sec-mod(sec, psec))
			if err != nil {
				s.dropRecords(1)
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			sw.last = w
		}
		if w.add(r, s.opts.BlockRecords) {
			if err := s.handOff(w, false); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	s.acct.Lock()
	s.stats.RecordsAppended += uint64(len(records))
	if firstErr == nil {
		firstErr, s.flushErr = s.flushErr, nil
	}
	s.acct.Unlock()
	metricIngestSeconds.ObserveDuration(time.Since(start)) //bsvet:allow determinism ingest latency telemetry measures host time, not simulated time
	return firstErr
}

// segmentFor returns the open segment writer for a shard partition,
// creating it on first use and sealing partitions two or more behind
// the newest to bound open file descriptors (ingest is roughly
// time-ordered; a record for a long-sealed partition simply opens a
// new segment file there).
func (s *Store) segmentFor(sw *shardWriter, part int64) (*segmentWriter, error) {
	if w, ok := sw.open[part]; ok {
		return w, nil
	}
	if !sw.havePart || part > sw.maxPart {
		sw.maxPart, sw.havePart = part, true
		psec := int64(s.opts.Partition / time.Second)
		for _, p := range sw.sortedParts() {
			if p <= part-2*psec {
				if err := s.sealSegment(sw, p); err != nil {
					return nil, err
				}
			}
		}
	}
	path := filepath.Join(sw.dir, segName(part, sw.segSeq))
	sw.segSeq++
	w, err := newSegmentWriter(sw, path, part, s.opts.BlockRecords)
	if err != nil {
		return nil, err
	}
	s.acct.Lock()
	s.onDisk += w.bytes
	s.acct.Unlock()
	sw.open[part] = w
	return w, nil
}

// sealSegment hands one open segment to its flusher for sealing; the
// next quiescent point records it in the manifest (in memory; the
// manifest is saved by Seal/Close).
func (s *Store) sealSegment(sw *shardWriter, part int64) error {
	w := sw.open[part]
	delete(sw.open, part)
	sw.last = nil
	return s.handOff(w, true)
}

// Seal flushes every buffered block, seals every open segment, waits
// for the flushers, and saves the manifest. The store remains open for
// further appends (which start new segments) and scans. It returns the
// first error among a block an injected fault refused, a write or fsync
// error a flusher met since the last Append, Seal or Close, and the
// manifest save; a segment that failed to seal stays out of the
// manifest, its written blocks left for the next Open to recover.
func (s *Store) Seal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sealLocked()
}

func (s *Store) sealLocked() error {
	var firstErr error
	for _, sw := range s.shards {
		for _, p := range sw.sortedParts() {
			if err := s.sealSegment(sw, p); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	s.quiesceLocked()
	s.acct.Lock()
	if firstErr == nil {
		firstErr, s.flushErr = s.flushErr, nil
	}
	s.acct.Unlock()
	if err := s.man.save(s.dir); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Close seals the store, stops its flushers, and closes it.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.sealLocked()
	for _, sw := range s.shards {
		close(sw.jobs)
	}
	s.flushers.Wait()
	s.closed = true
	unregisterOpen(s)
	return err
}

// Stats returns the ingest accounting, exact once the flushers have
// finished everything handed to them — which Stats waits for.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quiesceLocked()
	s.acct.Lock()
	st := s.stats
	s.acct.Unlock()
	st.RecordsBuffered = 0
	for _, sw := range s.shards {
		for _, w := range sw.open {
			st.RecordsBuffered += uint64(w.cols.Len())
		}
	}
	return st
}

// Segments returns the manifest's segment entries (sealed + recovered),
// after waiting for the flushers to finish the seals handed to them.
// Until Seal or Close saves the manifest, which sorts it, segments
// sealed since the last save follow in the order they were sealed.
func (s *Store) Segments() []SegmentEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quiesceLocked()
	out := make([]SegmentEntry, len(s.man.Segments))
	copy(out, s.man.Segments)
	return out
}

// dropRecords counts n records lost to a refused or failed block
// write, or to a segment that could not be opened.
func (s *Store) dropRecords(n uint64) {
	s.acct.Lock()
	s.stats.RecordsDropped += n
	s.acct.Unlock()
	metricDroppedRecords.Add(n)
}
