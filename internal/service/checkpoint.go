package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"booterscope/internal/chaos"
	"booterscope/internal/classify"
	"booterscope/internal/durable"
)

// Checkpoint file layout: magic (8 bytes "BSCKPT01"), then frames in
// the internal/durable envelope whose payload's first byte is the
// frame type:
//
//	1 header  — version, pipeline position (watermark, seq), store
//	            durability watermark, eviction clock, classifier
//	            config, monitor counters
//	2 bins    — a chunk of (victim, minute) bins with source sets
//	3 alerted — re-alert suppression markers
//	4 attacks — open attack lifecycle states (stable attack IDs)
//	255 trailer — end marker; a file without it is torn
//
// Writes go to checkpoint.tmp and are published by durable.Publish, so
// the visible checkpoint.bsck is always a complete snapshot: a crash
// mid-write (every write runs through a chaos.Failpoint hook in tests)
// leaves the previous checkpoint untouched. Load still verifies every
// CRC and requires the trailer, so a checkpoint torn by the filesystem
// itself is detected and reported rather than half-loaded — the caller
// falls back to a cold start plus archive replay, the same
// torn-tail-truncation stance the flowstore takes.

var ckptMagic = [8]byte{'B', 'S', 'C', 'K', 'P', 'T', '0', '1'}

const (
	ckptFileName = "checkpoint.bsck"
	ckptTmpName  = "checkpoint.tmp"

	frameHeader  = 1
	frameBins    = 2
	frameAlerted = 3
	frameAttacks = 4
	frameTrailer = 255

	// ckptVersion 2 added the attacks frame. Version 1 files are
	// rejected as unsupported; the daemon then cold-starts and replays
	// the archive — the same stance it takes on a corrupt checkpoint.
	ckptVersion = 2

	// binsPerFrame chunks the victim table so large checkpoints are
	// written (and fault-injected) in multiple operations.
	binsPerFrame = 256
)

// errCheckpointCorrupt marks a checkpoint file that fails CRC or
// framing validation — the daemon treats it as absent and replays from
// the flow archive instead.
var errCheckpointCorrupt = errors.New("service: corrupt checkpoint")

// Checkpoint is the complete persisted state of the detection daemon:
// the monitor snapshot plus the pipeline position (the fan-out's
// watermark and global sequence) and the archive durability watermark
// the restart replays from.
//
//bsvet:allow deadcode oracle: TestCheckpointBytesFrozen and TestMonitorCheckpointFrozen build checkpoints with it
type Checkpoint struct {
	// Watermark is the fan-out's eviction-clock watermark
	// (math.MinInt64 when no matched record has been routed).
	Watermark int64
	// Seq is the fan-out's global record sequence — how many records
	// the pipeline had routed when the snapshot was taken.
	Seq uint64
	// StoreDurable is the flow archive's durable record count at the
	// snapshot (the store is sealed at every checkpoint, so this is
	// the exact replay skip point).
	StoreDurable uint64
	// Config is the classifier thresholds in force — a SIGHUP reload
	// survives a restart.
	Config classify.Config
	// Monitor is the folded monitor state.
	Monitor *classify.MonitorSnapshot
}

// checkpointPath returns the checkpoint file location under dir.
func checkpointPath(dir string) string { return filepath.Join(dir, ckptFileName) }

func encodeHeader(cp *Checkpoint) []byte {
	s := cp.Monitor
	b := []byte{frameHeader}
	b = binary.BigEndian.AppendUint16(b, ckptVersion)
	b = binary.BigEndian.AppendUint64(b, uint64(cp.Watermark))
	b = binary.BigEndian.AppendUint64(b, cp.Seq)
	b = binary.BigEndian.AppendUint64(b, cp.StoreDurable)
	b = binary.BigEndian.AppendUint64(b, uint64(s.LatestUnix))
	if s.LatestValid {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(cp.Config.SizeThreshold))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(cp.Config.MinRateBps))
	b = binary.BigEndian.AppendUint64(b, uint64(int64(cp.Config.MinSources)))
	for _, v := range [...]uint64{
		s.Stats.Records, s.Stats.Matched, s.Stats.Alerts,
		s.Stats.RejectedRecords, s.Stats.EvictedBins, s.Stats.SourceOverflows,
	} {
		b = binary.BigEndian.AppendUint64(b, v)
	}
	return b
}

const headerLen = 1 + 2 + 8*4 + 1 + 8*3 + 8*6

func decodeHeader(b []byte, cp *Checkpoint) error {
	if len(b) != headerLen {
		return fmt.Errorf("%w: header frame is %d bytes, want %d", errCheckpointCorrupt, len(b), headerLen)
	}
	if v := binary.BigEndian.Uint16(b[1:]); v != ckptVersion {
		return fmt.Errorf("%w: unsupported checkpoint version %d", errCheckpointCorrupt, v)
	}
	s := cp.Monitor
	cp.Watermark = int64(binary.BigEndian.Uint64(b[3:]))
	cp.Seq = binary.BigEndian.Uint64(b[11:])
	cp.StoreDurable = binary.BigEndian.Uint64(b[19:])
	s.LatestUnix = int64(binary.BigEndian.Uint64(b[27:]))
	s.LatestValid = b[35] == 1
	cp.Config.SizeThreshold = math.Float64frombits(binary.BigEndian.Uint64(b[36:]))
	cp.Config.MinRateBps = math.Float64frombits(binary.BigEndian.Uint64(b[44:]))
	cp.Config.MinSources = int(int64(binary.BigEndian.Uint64(b[52:])))
	s.Stats.Records = binary.BigEndian.Uint64(b[60:])
	s.Stats.Matched = binary.BigEndian.Uint64(b[68:])
	s.Stats.Alerts = binary.BigEndian.Uint64(b[76:])
	s.Stats.RejectedRecords = binary.BigEndian.Uint64(b[84:])
	s.Stats.EvictedBins = binary.BigEndian.Uint64(b[92:])
	s.Stats.SourceOverflows = binary.BigEndian.Uint64(b[100:])
	return nil
}

func encodeBins(bins []classify.BinSnapshot) []byte {
	b := []byte{frameBins}
	b = binary.BigEndian.AppendUint32(b, uint32(len(bins)))
	for i := range bins {
		bin := &bins[i]
		b = append(b, bin.Victim[:]...)
		b = binary.BigEndian.AppendUint64(b, uint64(bin.MinuteUnix))
		b = binary.BigEndian.AppendUint64(b, bin.Bytes)
		b = binary.BigEndian.AppendUint64(b, bin.SourceOverflow)
		b = binary.BigEndian.AppendUint32(b, uint32(len(bin.Sources)))
		for _, src := range bin.Sources {
			b = append(b, src[:]...)
		}
	}
	return b
}

func decodeBins(b []byte, snap *classify.MonitorSnapshot) error {
	if len(b) < 5 {
		return fmt.Errorf("%w: short bins frame", errCheckpointCorrupt)
	}
	n := int(binary.BigEndian.Uint32(b[1:]))
	off := 5
	for i := 0; i < n; i++ {
		if len(b)-off < 16+8+8+8+4 {
			return fmt.Errorf("%w: truncated bin %d", errCheckpointCorrupt, i)
		}
		var bin classify.BinSnapshot
		copy(bin.Victim[:], b[off:])
		bin.MinuteUnix = int64(binary.BigEndian.Uint64(b[off+16:]))
		bin.Bytes = binary.BigEndian.Uint64(b[off+24:])
		bin.SourceOverflow = binary.BigEndian.Uint64(b[off+32:])
		nsrc := int(binary.BigEndian.Uint32(b[off+40:]))
		off += 44
		if nsrc < 0 || len(b)-off < nsrc*16 {
			return fmt.Errorf("%w: truncated source set of bin %d", errCheckpointCorrupt, i)
		}
		bin.Sources = make([][16]byte, nsrc)
		for j := 0; j < nsrc; j++ {
			copy(bin.Sources[j][:], b[off:])
			off += 16
		}
		if k := len(snap.Bins); k > 0 && !binBefore(&snap.Bins[k-1], &bin) {
			return fmt.Errorf("%w: bin %d unsorted or duplicated", errCheckpointCorrupt, i)
		}
		snap.Bins = append(snap.Bins, bin)
	}
	if off != len(b) {
		return fmt.Errorf("%w: %d trailing bytes in bins frame", errCheckpointCorrupt, len(b)-off)
	}
	return nil
}

// binBefore and victimBefore are the snapshot's sort orders (bins by
// victim then minute, markers and attacks by victim), strict: the
// monitor's Snapshot never lists an entry twice or out of order, so a
// frame that does is corrupt even when its CRC holds.
func binBefore(a, b *classify.BinSnapshot) bool {
	if c := bytes.Compare(a.Victim[:], b.Victim[:]); c != 0 {
		return c < 0
	}
	return a.MinuteUnix < b.MinuteUnix
}

func victimBefore(a, b [16]byte) bool { return bytes.Compare(a[:], b[:]) < 0 }

func encodeAlerted(ms []classify.AlertMarker) []byte {
	b := []byte{frameAlerted}
	b = binary.BigEndian.AppendUint32(b, uint32(len(ms)))
	for i := range ms {
		b = append(b, ms[i].Victim[:]...)
		b = binary.BigEndian.AppendUint64(b, uint64(ms[i].MinuteUnix))
	}
	return b
}

func decodeAlerted(b []byte, snap *classify.MonitorSnapshot) error {
	if len(b) < 5 {
		return fmt.Errorf("%w: short alerted frame", errCheckpointCorrupt)
	}
	n := int(binary.BigEndian.Uint32(b[1:]))
	if len(b) != 5+n*24 {
		return fmt.Errorf("%w: alerted frame is %d bytes, want %d", errCheckpointCorrupt, len(b), 5+n*24)
	}
	off := 5
	for i := 0; i < n; i++ {
		var m classify.AlertMarker
		copy(m.Victim[:], b[off:])
		m.MinuteUnix = int64(binary.BigEndian.Uint64(b[off+16:]))
		if k := len(snap.Alerted); k > 0 && !victimBefore(snap.Alerted[k-1].Victim, m.Victim) {
			return fmt.Errorf("%w: alert marker %d unsorted or duplicated", errCheckpointCorrupt, i)
		}
		snap.Alerted = append(snap.Alerted, m)
		off += 24
	}
	return nil
}

func encodeAttacks(as []classify.AttackSnapshot) []byte {
	b := []byte{frameAttacks}
	b = binary.BigEndian.AppendUint32(b, uint32(len(as)))
	for i := range as {
		b = append(b, as[i].Victim[:]...)
		b = binary.BigEndian.AppendUint64(b, as[i].ID)
		b = binary.BigEndian.AppendUint64(b, uint64(as[i].OpenedUnix))
		b = binary.BigEndian.AppendUint64(b, uint64(as[i].LastUnix))
	}
	return b
}

func decodeAttacks(b []byte, snap *classify.MonitorSnapshot) error {
	if len(b) < 5 {
		return fmt.Errorf("%w: short attacks frame", errCheckpointCorrupt)
	}
	n := int(binary.BigEndian.Uint32(b[1:]))
	if len(b) != 5+n*40 {
		return fmt.Errorf("%w: attacks frame is %d bytes, want %d", errCheckpointCorrupt, len(b), 5+n*40)
	}
	off := 5
	for i := 0; i < n; i++ {
		var a classify.AttackSnapshot
		copy(a.Victim[:], b[off:])
		a.ID = binary.BigEndian.Uint64(b[off+16:])
		a.OpenedUnix = int64(binary.BigEndian.Uint64(b[off+24:]))
		a.LastUnix = int64(binary.BigEndian.Uint64(b[off+32:]))
		if k := len(snap.Attacks); k > 0 && !victimBefore(snap.Attacks[k-1].Victim, a.Victim) {
			return fmt.Errorf("%w: attack %d unsorted or duplicated", errCheckpointCorrupt, i)
		}
		snap.Attacks = append(snap.Attacks, a)
		off += 40
	}
	return nil
}

// EncodeCheckpoint serializes cp into the framed on-disk form. The
// encoding is deterministic: equal states produce identical bytes (the
// restore-equivalence test pins this).
//
//bsvet:allow deadcode oracle: TestCheckpointBytesFrozen and TestMonitorCheckpointFrozen encode with it
func EncodeCheckpoint(cp *Checkpoint) []byte {
	out := append([]byte(nil), ckptMagic[:]...)
	out = durable.AppendFrame(out, encodeHeader(cp))
	bins := cp.Monitor.Bins
	for len(bins) > 0 {
		n := len(bins)
		if n > binsPerFrame {
			n = binsPerFrame
		}
		out = durable.AppendFrame(out, encodeBins(bins[:n]))
		bins = bins[n:]
	}
	out = durable.AppendFrame(out, encodeAlerted(cp.Monitor.Alerted))
	out = durable.AppendFrame(out, encodeAttacks(cp.Monitor.Attacks))
	return durable.AppendFrame(out, []byte{frameTrailer})
}

// decodeCheckpoint parses bytes produced by encodeCheckpoint, verifying
// magic, every frame CRC, and the trailer. Any damage — a torn tail, a
// flipped bit, a missing trailer — yields errCheckpointCorrupt.
func decodeCheckpoint(b []byte) (*Checkpoint, error) {
	if len(b) < len(ckptMagic) || [8]byte(b[:8]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad magic", errCheckpointCorrupt)
	}
	cp := &Checkpoint{Monitor: &classify.MonitorSnapshot{}}
	sawHeader, sawTrailer := false, false
	err := durable.Walk(b[len(ckptMagic):], func(_ int, payload []byte) error {
		if sawTrailer {
			return fmt.Errorf("%w: data after trailer", errCheckpointCorrupt)
		}
		if len(payload) == 0 {
			return fmt.Errorf("%w: empty frame", errCheckpointCorrupt)
		}
		switch payload[0] {
		case frameHeader:
			if sawHeader {
				return fmt.Errorf("%w: duplicate header frame", errCheckpointCorrupt)
			}
			sawHeader = true
			return decodeHeader(payload, cp)
		case frameBins:
			return decodeBins(payload, cp.Monitor)
		case frameAlerted:
			return decodeAlerted(payload, cp.Monitor)
		case frameAttacks:
			return decodeAttacks(payload, cp.Monitor)
		case frameTrailer:
			sawTrailer = true
			return nil
		}
		return fmt.Errorf("%w: unknown frame type %d", errCheckpointCorrupt, payload[0])
	})
	if err != nil {
		if !errors.Is(err, errCheckpointCorrupt) { // durable's torn-frame or CRC error
			err = fmt.Errorf("%w: %w", errCheckpointCorrupt, err)
		}
		return nil, err
	}
	if !sawHeader || !sawTrailer {
		return nil, fmt.Errorf("%w: missing %s frame", errCheckpointCorrupt, map[bool]string{true: "trailer", false: "header"}[sawHeader])
	}
	return cp, nil
}

// saveCheckpoint atomically publishes cp under dir through
// durable.Publish, one write per frame; every write, the fsync and the
// rename run through the fault hook ("checkpoint write|fsync|rename"),
// so the chaos suite can kill the writer at each offset. On any failure
// the previous checkpoint is left intact and the temp file removed.
// Returns the checkpoint size.
func saveCheckpoint(dir string, cp *Checkpoint, fault *chaos.Failpoint) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("service: checkpoint dir: %w", err)
	}
	enc := EncodeCheckpoint(cp)
	err := durable.Publish(checkpointPath(dir), filepath.Join(dir, ckptTmpName),
		durable.Frames(enc, len(ckptMagic)), fault, "checkpoint")
	if err != nil {
		return 0, fmt.Errorf("service: publishing checkpoint: %w", err)
	}
	return int64(len(enc)), nil
}

// loadCheckpoint reads the checkpoint under dir. A missing file is not
// an error — (nil, nil) means cold start. A present but damaged file
// returns errCheckpointCorrupt; the caller falls back to a cold start
// with archive replay from record zero.
func loadCheckpoint(dir string) (*Checkpoint, error) {
	b, err := os.ReadFile(checkpointPath(dir))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: reading checkpoint: %w", err)
	}
	return decodeCheckpoint(b)
}
