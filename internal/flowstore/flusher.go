package flowstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/telemetry/eventlog"
)

// The write path's second half. Every shard has one flusher goroutine
// and one syncer goroutine, started by Open and joined by Close. Append
// hands the flusher a block when an open segment's staging slab fills,
// and Append and Seal hand it each segment to seal; the flusher sorts
// (when the block came in out of order), encodes and writes each block
// and returns the emptied slab. A seal's last block is written the same
// way; the flusher then passes the segment to the syncer, which fsyncs
// and closes it, so while one segment fsyncs the next blocks still
// encode and write. A shard's jobs run in hand-off order and its seals
// reach the syncer in seal order, so its segment files hold exactly the
// bytes a synchronous writer would have written.
//
// WriteFault: block writes ("block-write shard N") are checked on the
// caller, in handOff, in the order Append stages blocks — a synchronous
// writer's order up to a real write error. Only the flusher learns that
// such an error broke a segment, so the caller still checks the segment's
// later blocks, which a synchronous writer dropped unchecked. Seal fsyncs
// ("segment-fsync shard N") are checked on the syncer, so they interleave
// with the caller's ops by scheduling.
//
// Memory and backpressure: a shard stages into shardSlabs slabs of
// BlockRecords rows — one for the open segment, flushQueue for blocks
// handed to the flusher and not yet written, one for the last block of
// a segment being sealed — plus one per further open partition. Each
// block hand-off takes one of the shard's flushQueue tokens and the
// flusher returns it once the block is written, so Append waits only
// when flushQueue blocks of its shard are in flight (the wait is
// flowstore_ingest_wait_seconds). A seal takes no token: the slab it
// carries is its own partition's, so Append never waits behind a seal's
// fsync. Only when sealQueue seals wait for the syncer does the flusher
// stop, and its blocks then hold up Append through the tokens.
const (
	flushQueue = 2
	shardSlabs = flushQueue + 2
	sealQueue  = 2
)

// flushJob is one unit of a flusher's work: a block to write (cols
// non-nil), then, with seal set, the segment's seal. failed marks a seal
// whose last block WriteFault refused: the segment is closed unsealed.
type flushJob struct {
	w        *segmentWriter
	cols     *flow.Columns
	unsorted bool
	seal     bool
	failed   bool
}

// errSegmentBroken refuses a block of a segment an earlier write error
// may have torn.
var errSegmentBroken = errors.New("broken by an earlier write error")

// newSlab returns an empty staging slab with room for a whole block, so
// staging into it never grows a column.
func newSlab(blockRecords int) *flow.Columns {
	c := new(flow.Columns)
	c.Resize(blockRecords)
	c.Reset()
	return c
}

// takeSlab returns an empty staging slab: one the flusher gave back, or
// a new one.
func (sw *shardWriter) takeSlab(blockRecords int) *flow.Columns {
	select {
	case c := <-sw.free:
		return c
	default:
		return newSlab(blockRecords)
	}
}

// recycle offers an empty slab for reuse; past the free list's capacity
// it is left to the collector.
func (sw *shardWriter) recycle(c *flow.Columns) {
	select {
	case sw.free <- c:
	default:
	}
}

// handOff passes w's staged block to its shard's flusher — and, with
// seal set, the rest of w's sealing. WriteFault is consulted here, on
// the caller, so block-write ops keep the order Append stages blocks in;
// a refused block's records are dropped on the spot and its slab emptied
// for the segment's next rows. Called with s.mu held.
func (s *Store) handOff(w *segmentWriter, seal bool) error {
	sw := w.sw
	j := flushJob{w: w, seal: seal}
	var err error
	if n := w.cols.Len(); n > 0 {
		// Checked only when set: naming the op allocates.
		if fp := s.opts.WriteFault; fp != nil {
			err = fp.Check(fmt.Sprintf("block-write shard %d", sw.id))
		}
		if err != nil {
			s.dropRecords(uint64(n))
			w.cols.Reset()
		} else {
			j.cols, j.unsorted, w.cols = w.cols, w.unsorted, nil
		}
		w.unsorted = false
	}
	if !seal && j.cols == nil {
		return err // refused: the segment stages on into its emptied slab
	}
	if seal {
		j.failed = err != nil
		if w.cols != nil {
			sw.recycle(w.cols)
			w.cols = nil
		}
		s.sealing = append(s.sealing, w)
	}
	sw.pending.Add(1)
	if !seal {
		sw.takeToken()
	}
	sw.jobs <- j
	if !seal {
		if !sw.primed {
			// The shard's first full block: allocate the rest of its slab
			// budget now. The budget is the same either way; this fixes
			// when it is allocated. Left to takeSlab, a slab is allocated
			// whenever the flusher first falls that far behind, which can
			// be deep inside an otherwise allocation-free steady state —
			// TestAppendSteadyStateAllocs fails that way at GOMAXPROCS 1.
			sw.primed = true
			for range shardSlabs - 1 {
				sw.recycle(newSlab(s.opts.BlockRecords))
			}
		}
		w.cols = sw.takeSlab(s.opts.BlockRecords)
	}
	return err
}

// takeToken takes one of the shard's block tokens, waiting for the
// flusher to write a block when all of them are in flight. Only a wait
// is timed, so a hand-off that finds a token pays for no clock read.
func (sw *shardWriter) takeToken() {
	select {
	case sw.tokens <- struct{}{}:
		return
	default:
	}
	start := time.Now() //bsvet:allow determinism ingest wait telemetry measures host time, not simulated time
	sw.tokens <- struct{}{}
	metricIngestWait.ObserveDuration(time.Since(start)) //bsvet:allow determinism ingest wait telemetry measures host time, not simulated time
}

// flush is a shard's flusher: it runs the shard's jobs in hand-off order
// until Close closes the queue, passing each seal to the syncer once its
// last block is written, and then stops the syncer.
func (s *Store) flush(sw *shardWriter) {
	defer s.flushers.Done()
	defer close(sw.syncs)
	var enc blockEncoder
	for j := range sw.jobs {
		if j.cols != nil {
			if err := s.writeBlock(&enc, j.w, j.cols, j.unsorted); err != nil {
				s.noteFlushErr(fmt.Errorf("flowstore: writing block of %s: %w", j.w.path, err))
			}
			j.cols.Reset()
			sw.recycle(j.cols)
		}
		if j.seal {
			sw.syncs <- j // the syncer finishes the job
			continue
		}
		<-sw.tokens
		sw.pending.Done()
	}
}

// syncSeals is a shard's syncer: it finishes the seals the flusher
// passes it, in seal order, until the flusher stops.
func (s *Store) syncSeals(sw *shardWriter) {
	defer s.flushers.Done()
	for j := range sw.syncs {
		if err := s.finishSegment(j.w, j.failed); err != nil {
			s.noteFlushErr(err)
		}
		sw.pending.Done()
	}
}

// writeBlock encodes one staged block and appends its frame to w's file.
// A block of a segment an earlier write error broke, or one whose own
// write fails, is dropped — counted, never silent — and the error
// returned.
func (s *Store) writeBlock(enc *blockEncoder, w *segmentWriter, c *flow.Columns, unsorted bool) error {
	n := uint64(c.Len())
	if w.broken {
		s.dropRecords(n)
		return errSegmentBroken
	}
	if unsorted {
		c = enc.sortedCopy(c)
	}
	frame, ix := enc.encode(c)
	if _, err := w.f.Write(frame); err != nil {
		w.broken = true
		s.dropRecords(n)
		return err
	}
	if w.blocks == 0 {
		w.minSec, w.maxSec = ix.MinStartSec, ix.MaxStartSec
	} else {
		w.minSec, w.maxSec = min(w.minSec, ix.MinStartSec), max(w.maxSec, ix.MaxStartSec)
	}
	size := uint64(len(frame))
	w.blocks++
	w.records += n
	w.bytes += size
	s.acct.Lock()
	s.stats.RecordsDurable += n
	s.stats.BlocksWritten++
	s.stats.BytesWritten += size
	s.onDisk += size
	s.acct.Unlock()
	metricBlocksWritten.Inc()
	metricBytesWritten.Add(size)
	return nil
}

// finishSegment is the syncer's half of a seal, after the segment's
// last block is written: fsync (unless NoSync), close, and mark the segment ready
// for the manifest. A segment whose last block was refused, that a write
// error broke, or whose fsync or close fails stays out of the manifest;
// the blocks it has on disk are the next Open's to recover. An empty
// segment that seals cleanly has its file removed.
func (s *Store) finishSegment(w *segmentWriter, failed bool) error {
	var err error
	if failed {
		w.f.Close() // WriteFault's error went back to the caller that handed the seal off
	} else if err = s.syncClose(w); err == nil {
		if w.blocks == 0 {
			err = os.Remove(w.path)
		} else {
			w.sealed = true
		}
	}
	s.acct.Lock()
	if w.sealed {
		s.stats.SegmentsSealed++
	} else {
		s.onDisk -= w.bytes // the gauge counts manifest and open segments only
	}
	s.acct.Unlock()
	if !w.sealed {
		return err
	}
	metricSegmentsSealed.Inc()
	eventlog.Active().Emit("flowstore", "flowstore_segment_sealed", 0,
		eventlog.AInt("shard", int64(w.sw.id)),
		eventlog.A("file", filepath.Base(w.path)),
		eventlog.AUint("records", w.records),
		eventlog.AUint("bytes", w.bytes))
	return nil
}

// syncClose fsyncs (unless NoSync) and closes w's file; a segment a write
// error broke is closed unsynced. The fsync consults WriteFault first, on
// the syncer, so a chaos test can fail a seal after its blocks are
// written.
func (s *Store) syncClose(w *segmentWriter) error {
	if w.broken {
		w.f.Close()
		return fmt.Errorf("flowstore: segment %s %w", w.path, errSegmentBroken)
	}
	if !s.opts.NoSync {
		if s.syncHook != nil {
			s.syncHook()
		}
		var err error
		if fp := s.opts.WriteFault; fp != nil {
			err = fp.Check(fmt.Sprintf("segment-fsync shard %d", w.sw.id))
		}
		if err == nil {
			err = w.f.Sync()
		}
		if err != nil {
			w.f.Close()
			return fmt.Errorf("flowstore: fsync %s: %w", w.path, err)
		}
	}
	return w.f.Close()
}

// noteFlushErr latches the first error a flusher meets for the next
// Append, Seal or Close to return.
func (s *Store) noteFlushErr(err error) {
	s.acct.Lock()
	if s.flushErr == nil {
		s.flushErr = err
	}
	s.acct.Unlock()
}

// quiesceLocked waits until every flusher and syncer has finished what
// it was handed, then records the segments they sealed in the in-memory
// manifest, in the order they were handed off to be sealed. Called with
// s.mu held.
func (s *Store) quiesceLocked() {
	for _, sw := range s.shards {
		sw.pending.Wait()
	}
	for _, w := range s.sealing {
		if w.sealed {
			s.man.Segments = append(s.man.Segments, w.entry())
		}
	}
	clear(s.sealing)
	s.sealing = s.sealing[:0]
}
