package flowstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"booterscope/internal/flow"
	"booterscope/internal/pipe"
	"booterscope/internal/telemetry"
)

// TestHostileSealedSegment damages one sealed segment — the first one
// shard 0 reads — in each way a disk or an operator can, and requires
// both scan entry points to fail loudly: an error (never a panic, never
// a quietly short result), the healthy shards cancelled rather than
// left to decode the rest of the archive, and every pooled batch back
// in the pool.
func TestHostileSealedSegment(t *testing.T) {
	// Many partitions, so the healthy shards hold far more than the
	// output queues let them run ahead of the consumer.
	const shards = 3
	recs := genFlows(rand.New(rand.NewSource(31)), testBase, 30, 30_000)
	s := buildTestStore(t, recs, shards)
	total := uint64(len(recs))

	var victim string
	var maxSeg uint64                // the most records one scanner hands over at once
	for _, e := range s.Segments() { // manifest order: shard, partition, file
		if e.Shard == 0 && victim == "" {
			victim = filepath.Join(s.Dir(), "shard-00", e.File)
		}
		maxSeg = max(maxSeg, e.Records)
	}
	// Cancellation, stated without a clock: whatever the scanners decoded
	// beyond what the consumer was handed sat in the output queues (two
	// slots per scanner), in a blocked send, or in the partition a
	// scanner was finishing when the failure closed done. A scan that
	// kept going after the error blows through this however it is
	// scheduled, unless the consumer had nearly everything already.
	runAhead := uint64(4*shards+1) * maxSeg
	if total < 3*runAhead {
		t.Fatalf("fixture too small: %d records, run-ahead allowance %d", total, runAhead)
	}
	pristine, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	first := len(segMagic) // offset of the first frame
	firstLen := int(binary.BigEndian.Uint32(pristine[first:]))

	cases := []struct {
		name    string
		damage  func(seg []byte) []byte
		wantErr string
	}{
		{"frame length past EOF", func(seg []byte) []byte {
			binary.BigEndian.PutUint32(seg[first:], uint32(len(seg)))
			return seg
		}, "torn frame"},
		{"bit flip in dict index bytes", func(seg []byte) []byte {
			// Scans trust sealed segments' CRCs to recovery, so a flipped
			// bit is caught only where the decoder can tell. genFlows
			// draws five destination ports: a 4-bit dict whose indices
			// 5..15 name nothing. Flip the top bit of row 0's index.
			payload := seg[first+frameHeadLen+blockIndexLen : first+frameHeadLen+firstLen]
			var pb parsedBlock
			if err := pb.parse(payload); err != nil {
				t.Fatal(err)
			}
			if pb.encs[colDstPortIdx] != encDict {
				t.Fatalf("dst-port column encoding %d, test needs dict", pb.encs[colDstPortIdx])
			}
			values, packed, err := dictHeader(pb.cols[colDstPortIdx], int(binary.BigEndian.Uint32(seg[first+frameHeadLen:])), nil)
			if err != nil || dictWidth(len(values)) != 4 {
				t.Fatalf("dst-port dict: %d values, err %v; test needs a 4-bit dict", len(values), err)
			}
			packed[0] ^= 0x08 // packed aliases seg
			return seg
		}, "dict index"},
		{"truncated last frame", func(seg []byte) []byte {
			return seg[:len(seg)-3]
		}, "torn frame"},
		{"bad magic", func(seg []byte) []byte {
			seg[0] ^= 0xff
			return seg
		}, "bad segment magic"},
		{"v1 payload", func(seg []byte) []byte {
			blk := recs[:100]
			ix := buildIndex(stage(blk))
			body := append(ix.marshal(nil), encodeBlockV1(blk)...)
			seg = binary.BigEndian.AppendUint32(seg[:first], uint32(len(body)))
			seg = binary.BigEndian.AppendUint32(seg, crc32.ChecksumIEEE(body))
			return append(seg, body...)
		}, "regenerate with flowgen"},
	}

	reg := telemetry.NewRegistry()
	pipe.RegisterTelemetry(reg)
	inFlight := reg.Gauge("pipe_batches_in_flight", "")

	scans := []struct {
		name string
		run  func(handed *uint64) (ScanStats, error) // counts records the consumer was given
	}{
		{"Scan", func(handed *uint64) (ScanStats, error) {
			return s.Scan(Query{}, func(*flow.Record) error { *handed++; return nil })
		}},
		{"ScanBatches", func(handed *uint64) (ScanStats, error) {
			return s.ScanBatches(Query{}, func(b *pipe.Batch) error {
				*handed += uint64(b.Len())
				b.Release()
				return nil
			})
		}},
	}
	for _, tc := range cases {
		if err := os.WriteFile(victim, tc.damage(bytes.Clone(pristine)), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, sc := range scans {
			before := inFlight.Value()
			var handed uint64
			stats, err := sc.run(&handed)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s, %s: err = %v, want one containing %q", tc.name, sc.name, err, tc.wantErr)
			}
			if stats.RecordsScanned > handed+runAhead {
				t.Errorf("%s, %s: consumer was handed %d records but %d were decoded (allowance %d) — scanners outlived the failure",
					tc.name, sc.name, handed, stats.RecordsScanned, runAhead)
			}
			if after := inFlight.Value(); after != before {
				t.Errorf("%s, %s: pipe_batches_in_flight %v -> %v, pooled batches leaked", tc.name, sc.name, before, after)
			}
		}
	}

	// The fixture itself is sound: undamaged, the same store scans clean.
	if err := os.WriteFile(victim, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, sc := range scans {
		var handed uint64
		if _, err := sc.run(&handed); err != nil || handed != total {
			t.Fatalf("pristine %s: handed %d of %d records, err %v", sc.name, handed, total, err)
		}
	}
}

// TestRecoveryStopsAtFlippedBit is the CRC half of crash recovery
// (TestCrashRecovery covers the short-file half): one flipped payload
// bit in an unsealed segment's last block leaves every length intact,
// so only the checksum can tell — recovery must adopt the blocks before
// it and truncate from the damaged frame on.
func TestRecoveryStopsAtFlippedBit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 1, BlockRecords: 64, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(genFlows(rand.New(rand.NewSource(5)), testBase, 1, 64*6)); err != nil {
		t.Fatal(err)
	}
	s.Stats() // a quiescent point: the flusher has written every full block
	// Crash: abandoned without Seal/Close, every full block already on disk.
	segs, err := filepath.Glob(filepath.Join(dir, "shard-00", "seg-*"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments on disk = %v (%v), want one", segs, err)
	}
	blocks, err := InspectSegment(segs[0])
	if err != nil || len(blocks) < 3 {
		t.Fatalf("%d intact blocks (%v), want several", len(blocks), err)
	}
	last := blocks[len(blocks)-1]
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	seg[last.Offset+int64(last.FrameBytes)-1] ^= 0x10
	if err := os.WriteFile(segs[0], seg, 0o644); err != nil {
		t.Fatal(err)
	}

	if got, err := InspectSegment(segs[0]); err != nil || len(got) != len(blocks)-1 {
		t.Fatalf("InspectSegment lists %d blocks (%v) after the flip, want %d", len(got), err, len(blocks)-1)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec.TornSegments != 1 || rec.TruncatedBytes != int64(last.FrameBytes) {
		t.Fatalf("recovery = %+v, want one torn segment truncated by the %d-byte frame", rec, last.FrameBytes)
	}
	if want := uint64(64 * (len(blocks) - 1)); rec.RecoveredRecords != want {
		t.Fatalf("RecoveredRecords = %d, want %d", rec.RecoveredRecords, want)
	}
}
