// Package chaos is a deterministic fault-injection layer for the flow
// export pipeline. Its centerpiece is Proxy, a UDP relay that sits
// between any exporter and collector and applies seed-driven drop,
// duplicate, reorder, corrupt, and blackout faults according to a Plan,
// keeping an exact Ledger of every fault injected.
//
// The study's vantage points are real-world flow exports — sampled
// IPFIX from an IXP, NetFlow from two ISP tiers — which in production
// suffer datagram loss, reordering, duplication, and exporter
// restarts. Replaying the pipeline through a Proxy with a fixed seed
// makes those imperfections reproducible, so tests can assert that the
// collector's loss accounting matches the injected faults exactly and
// that detection quality degrades gracefully rather than cliff-like.
package chaos

import "encoding/binary"

// blackout is a half-open range [FromPacket, ToPacket) of received
// datagram indexes (counting from 0) dropped entirely — the shape of an
// exporter restart or a routed-around outage. Expressing outages in
// packet indexes rather than wall-clock seconds keeps runs
// deterministic regardless of machine speed.
type blackout struct {
	FromPacket int
	ToPacket   int
}

// contains reports whether datagram index i falls in the blackout.
func (b blackout) contains(i int) bool { return i >= b.FromPacket && i < b.ToPacket }

// Plan describes the fault schedule a Proxy applies. The zero value
// forwards everything untouched. All rates are per-datagram
// probabilities in [0, 1], drawn from a PCG stream seeded with Seed, so
// the same plan over the same input always injects the same faults.
type Plan struct {
	// Seed drives every random fault decision.
	Seed uint64
	// DropRate silently discards datagrams (uniform loss).
	DropRate float64
	// DuplicateRate forwards datagrams twice back to back.
	DuplicateRate float64
	// ReorderRate holds a datagram back and releases it after the next
	// forwarded one (adjacent swap), modelling in-flight reordering.
	ReorderRate float64
	// CorruptRate flips one random byte of the payload before
	// forwarding.
	CorruptRate float64
	// Blackouts lists whole outage windows in datagram indexes.
	Blackouts []blackout
	// IPFIXAware enables record-level drop attribution: the proxy
	// reads each IPFIX header's sequence number and observation domain
	// and, from the sequence delta to the following message, credits
	// the exact number of flow records each dropped datagram carried
	// to Ledger.DroppedRecords. No template state is needed — the
	// sequence numbers alone size every message.
	IPFIXAware bool
}

// Ledger is the proxy's exact account of injected faults.
type Ledger struct {
	// Received counts datagrams read from the exporter side; Forwarded
	// counts datagrams written toward the collector (duplicates count
	// twice).
	Received  uint64
	Forwarded uint64
	// Dropped counts random drops, BlackoutDropped counts drops inside
	// blackout windows.
	Dropped         uint64
	BlackoutDropped uint64
	// Duplicated, Reordered, and Corrupted count datagrams the
	// respective fault was applied to.
	Duplicated uint64
	Reordered  uint64
	Corrupted  uint64
	// ForwardErrors counts datagrams lost to write errors on the
	// collector-facing socket (not a planned fault, still accounted).
	ForwardErrors uint64
	// DroppedRecords maps observation domain -> flow records carried
	// by dropped datagrams (IPFIXAware plans only). Only drops the
	// collector can observe are attributed: a trailing dropped message
	// with no successor cannot be sized, and drops before the domain's
	// first forwarded message precede the collector's sequence
	// baseline. Both are omitted on both sides, so the ledgers agree by
	// construction.
	DroppedRecords map[uint32]uint64
}

// TotalDropped is the datagram count lost to drops and blackouts.
func (l Ledger) TotalDropped() uint64 { return l.Dropped + l.BlackoutDropped }

// TotalDroppedRecords sums record-level drop attribution over all
// observation domains.
func (l Ledger) TotalDroppedRecords() uint64 {
	var n uint64
	for _, v := range l.DroppedRecords {
		n += v
	}
	return n
}

// clone deep-copies the ledger for snapshotting.
func (l Ledger) clone() Ledger {
	out := l
	if l.DroppedRecords != nil {
		out.DroppedRecords = make(map[uint32]uint64, len(l.DroppedRecords))
		for k, v := range l.DroppedRecords {
			out.DroppedRecords[k] = v
		}
	}
	return out
}

// ipfixHeader extracts (sequence, domain) from an IPFIX message
// header. ok is false for payloads that are not IPFIX.
func ipfixHeader(b []byte) (seq, domain uint32, ok bool) {
	if len(b) < 16 || binary.BigEndian.Uint16(b) != 10 {
		return 0, 0, false
	}
	return binary.BigEndian.Uint32(b[8:]), binary.BigEndian.Uint32(b[12:]), true
}
