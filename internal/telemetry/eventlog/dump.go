package eventlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"time"

	"booterscope/internal/chaos"
	"booterscope/internal/durable"
)

// Incident dump file layout: magic (8 bytes "BSEVT001"), then frames
// in the internal/durable envelope whose payload's first byte is the
// frame type:
//
//	1 header  — version, trigger reason, event count, dump wall time
//	2 events  — a chunk of encoded events
//	255 trailer — end marker; a file without it is torn
//
// Writes go to incident-<reason>.tmp and are published by
// durable.Publish over incident-<reason>.bsevt, so the visible dump
// for a given trigger is always a complete snapshot: a crash mid-write
// (every write runs through a chaos.Failpoint hook in
// TestDumpCrashAtEveryWriteOffset) leaves the previous dump untouched
// or — when none existed — no file at all, never a torn one. Load
// verifies every CRC and requires the trailer, so filesystem-level
// damage is reported as errDumpCorrupt rather than half-loaded.

var dumpMagic = [8]byte{'B', 'S', 'E', 'V', 'T', '0', '0', '1'}

const (
	dumpFrameHeader  = 1
	dumpFrameEvents  = 2
	dumpFrameTrailer = 255

	dumpVersion = 1

	// eventsPerFrame chunks the ring so large dumps are written (and
	// fault-injected) in multiple operations.
	eventsPerFrame = 128
)

// errDumpCorrupt marks an incident dump failing CRC or framing
// validation.
var errDumpCorrupt = errors.New("eventlog: corrupt incident dump")

// Dump is a decoded incident dump.
type Dump struct {
	// Reason is the trigger that fired (slo_burn, shed_escalation,
	// drain, checkpoint_failure).
	Reason string
	// WallNanos is when the dump was taken.
	WallNanos int64
	// Events are the ring's events at dump time, in sequence order.
	Events []Event
}

// reasonRE bounds trigger reasons to the metric-name charset: the
// reason is embedded in the dump filename.
var reasonRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// dumpPath returns the incident dump location for a trigger reason
// under dir. The name is fixed per reason — a re-fire of the same
// trigger atomically replaces its previous dump — so a directory
// holds at most one dump per trigger kind, newest wins.
func dumpPath(dir, reason string) string {
	return filepath.Join(dir, "incident-"+reason+".bsevt")
}

func appendString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func readString(b []byte, off int) (string, int, bool) {
	if len(b)-off < 2 {
		return "", 0, false
	}
	n := int(binary.BigEndian.Uint16(b[off:]))
	off += 2
	if len(b)-off < n {
		return "", 0, false
	}
	return string(b[off : off+n]), off + n, true
}

func encodeEvent(dst []byte, ev *Event) []byte {
	dst = binary.BigEndian.AppendUint64(dst, ev.Seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(ev.WallNanos))
	dst = binary.BigEndian.AppendUint64(dst, uint64(ev.MonoNanos))
	dst = binary.BigEndian.AppendUint64(dst, ev.AttackID)
	dst = appendString(dst, ev.Component)
	dst = appendString(dst, ev.Kind)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(ev.Attrs)))
	for _, a := range ev.Attrs {
		dst = appendString(dst, a.Key)
		dst = appendString(dst, a.Value)
	}
	return dst
}

func decodeEvent(b []byte, off int) (Event, int, error) {
	var ev Event
	if len(b)-off < 32 {
		return ev, 0, fmt.Errorf("%w: truncated event", errDumpCorrupt)
	}
	ev.Seq = binary.BigEndian.Uint64(b[off:])
	ev.WallNanos = int64(binary.BigEndian.Uint64(b[off+8:]))
	ev.MonoNanos = int64(binary.BigEndian.Uint64(b[off+16:]))
	ev.AttackID = binary.BigEndian.Uint64(b[off+24:])
	off += 32
	var ok bool
	if ev.Component, off, ok = readString(b, off); !ok {
		return ev, 0, fmt.Errorf("%w: truncated event component", errDumpCorrupt)
	}
	if ev.Kind, off, ok = readString(b, off); !ok {
		return ev, 0, fmt.Errorf("%w: truncated event kind", errDumpCorrupt)
	}
	if len(b)-off < 2 {
		return ev, 0, fmt.Errorf("%w: truncated event attrs", errDumpCorrupt)
	}
	nattrs := int(binary.BigEndian.Uint16(b[off:]))
	off += 2
	for i := 0; i < nattrs; i++ {
		var a Attr
		if a.Key, off, ok = readString(b, off); !ok {
			return ev, 0, fmt.Errorf("%w: truncated attr key", errDumpCorrupt)
		}
		if a.Value, off, ok = readString(b, off); !ok {
			return ev, 0, fmt.Errorf("%w: truncated attr value", errDumpCorrupt)
		}
		ev.Attrs = append(ev.Attrs, a)
	}
	return ev, off, nil
}

// EncodeDump serializes a dump into the framed on-disk form. The
// encoding is deterministic: equal inputs produce identical bytes.
//
//bsvet:allow deadcode oracle: TestDumpBytesFrozen freezes its bytes
func EncodeDump(reason string, wallNanos int64, events []Event) []byte {
	out := append([]byte(nil), dumpMagic[:]...)
	hdr := []byte{dumpFrameHeader}
	hdr = binary.BigEndian.AppendUint16(hdr, dumpVersion)
	hdr = appendString(hdr, reason)
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(wallNanos))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(events)))
	out = durable.AppendFrame(out, hdr)
	for len(events) > 0 {
		n := len(events)
		if n > eventsPerFrame {
			n = eventsPerFrame
		}
		chunk := []byte{dumpFrameEvents}
		chunk = binary.BigEndian.AppendUint32(chunk, uint32(n))
		for i := 0; i < n; i++ {
			chunk = encodeEvent(chunk, &events[i])
		}
		out = durable.AppendFrame(out, chunk)
		events = events[n:]
	}
	return durable.AppendFrame(out, []byte{dumpFrameTrailer})
}

// decodeDump parses bytes produced by encodeDump, verifying magic,
// every frame CRC, and the trailer. Any damage yields errDumpCorrupt.
func decodeDump(b []byte) (*Dump, error) {
	if len(b) < len(dumpMagic) || [8]byte(b[:8]) != dumpMagic {
		return nil, fmt.Errorf("%w: bad magic", errDumpCorrupt)
	}
	d := &Dump{}
	sawHeader, sawTrailer := false, false
	declared := -1
	err := durable.Walk(b[len(dumpMagic):], func(_ int, payload []byte) error {
		if sawTrailer {
			return fmt.Errorf("%w: data after trailer", errDumpCorrupt)
		}
		if len(payload) == 0 {
			return fmt.Errorf("%w: empty frame", errDumpCorrupt)
		}
		switch payload[0] {
		case dumpFrameHeader:
			if sawHeader {
				return fmt.Errorf("%w: duplicate header frame", errDumpCorrupt)
			}
			sawHeader = true
			if len(payload) < 3 {
				return fmt.Errorf("%w: short header frame", errDumpCorrupt)
			}
			if v := binary.BigEndian.Uint16(payload[1:]); v != dumpVersion {
				return fmt.Errorf("%w: unsupported dump version %d", errDumpCorrupt, v)
			}
			reason, p, ok := readString(payload, 3)
			if !ok || len(payload)-p != 12 {
				return fmt.Errorf("%w: malformed header frame", errDumpCorrupt)
			}
			d.Reason = reason
			d.WallNanos = int64(binary.BigEndian.Uint64(payload[p:]))
			declared = int(binary.BigEndian.Uint32(payload[p+8:]))
		case dumpFrameEvents:
			if len(payload) < 5 {
				return fmt.Errorf("%w: short events frame", errDumpCorrupt)
			}
			n := int(binary.BigEndian.Uint32(payload[1:]))
			p := 5
			for i := 0; i < n; i++ {
				ev, next, err := decodeEvent(payload, p)
				if err != nil {
					return err
				}
				d.Events = append(d.Events, ev)
				p = next
			}
			if p != len(payload) {
				return fmt.Errorf("%w: %d trailing bytes in events frame", errDumpCorrupt, len(payload)-p)
			}
		case dumpFrameTrailer:
			sawTrailer = true
		default:
			return fmt.Errorf("%w: unknown frame type %d", errDumpCorrupt, payload[0])
		}
		return nil
	})
	if err != nil {
		if !errors.Is(err, errDumpCorrupt) { // durable's torn-frame or CRC error
			err = fmt.Errorf("%w: %w", errDumpCorrupt, err)
		}
		return nil, err
	}
	if !sawHeader || !sawTrailer {
		return nil, fmt.Errorf("%w: missing %s frame", errDumpCorrupt, map[bool]string{true: "trailer", false: "header"}[sawHeader])
	}
	if declared != len(d.Events) {
		return nil, fmt.Errorf("%w: header declares %d events, found %d", errDumpCorrupt, declared, len(d.Events))
	}
	return d, nil
}

// saveDump atomically publishes events as the incident dump for
// reason under dir through durable.Publish, one write per frame; every
// write, the fsync and the rename run through the fault hook
// ("incident write|fsync|rename"), so the crash matrix can kill the
// writer at each offset. On any failure the previous dump is left
// intact and the temp file removed. Returns the dump path and size.
func saveDump(dir, reason string, wallNanos int64, events []Event, fault *chaos.Failpoint) (string, int64, error) {
	if !reasonRE.MatchString(reason) {
		return "", 0, fmt.Errorf("eventlog: dump reason %q does not match %s", reason, reasonRE)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, fmt.Errorf("eventlog: incident dir: %w", err)
	}
	enc := EncodeDump(reason, wallNanos, events)
	path := dumpPath(dir, reason)
	err := durable.Publish(path, filepath.Join(dir, "incident-"+reason+".tmp"),
		durable.Frames(enc, len(dumpMagic)), fault, "incident")
	if err != nil {
		return "", 0, fmt.Errorf("eventlog: publishing dump: %w", err)
	}
	return path, int64(len(enc)), nil
}

// LoadDump reads and validates one incident dump file.
func LoadDump(path string) (*Dump, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("eventlog: reading dump: %w", err)
	}
	return decodeDump(b)
}

// DumpTo snapshots the ring and atomically publishes it as the
// incident dump for reason under dir, recording the outcome in the
// recorder's own telemetry. A nil receiver is a no-op.
func (l *Log) DumpTo(dir, reason string, fault *chaos.Failpoint) (string, int64, error) {
	if l == nil {
		return "", 0, nil
	}
	path, n, err := saveDump(dir, reason, time.Now().UnixNano(), l.Snapshot(), fault)
	if err != nil {
		l.m.dumpFailures.Inc()
		return "", 0, err
	}
	l.m.dumps.Inc()
	l.m.dumpBytes.Set(float64(n))
	return path, n, nil
}
