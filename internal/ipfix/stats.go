package ipfix

import "fmt"

// DomainStats is the per-observation-domain accounting a Decoder keeps
// while parsing a message stream. IPFIX sequence numbers count data
// records modulo 2^32 (RFC 7011 §3.1); tracking them per domain makes
// transport loss visible: a collector that never checks them cannot
// tell a quiet exporter from a lossy path.
type DomainStats struct {
	// Messages and Records count successfully parsed messages and the
	// data records decoded from them.
	Messages uint64
	Records  uint64
	// SeqGapRecords accumulates records jumped over when a message
	// arrives with a sequence number ahead of the expected one.
	SeqGapRecords uint64
	// SeqLateRecords counts records that arrived behind the expected
	// sequence number (reordered in transit): their gap was charged to
	// SeqGapRecords when the stream jumped ahead, so true loss is
	// SeqGapRecords - SeqLateRecords (see LostRecords).
	SeqLateRecords uint64
	// DuplicateMessages counts messages whose sequence number was
	// already seen recently (duplicated in transit).
	DuplicateMessages uint64
	// SeqResets counts sequence jumps too large to be plausible loss,
	// treated as exporter restarts: accounting re-synchronizes without
	// charging a gap.
	SeqResets uint64
	// UnknownTemplateSets counts data sets skipped because their
	// template is not (yet) known; UnknownTemplateMessages counts
	// messages containing at least one such set. RFC 7011 collectors
	// drop these while awaiting a template refresh — here the drop is
	// accounted instead of silent.
	UnknownTemplateSets     uint64
	UnknownTemplateMessages uint64
}

// LostRecords reports the records lost in transit for good: sequence
// gaps minus late arrivals that later filled them.
func (s DomainStats) LostRecords() uint64 {
	if s.SeqLateRecords >= s.SeqGapRecords {
		return 0
	}
	return s.SeqGapRecords - s.SeqLateRecords
}

// CollectorStats is a point-in-time snapshot of a Collector's
// accounting across the socket, the ingest queue, and the decoder.
type CollectorStats struct {
	// Messages and Bytes count datagrams read off the socket.
	Messages uint64
	Bytes    uint64
	// Shed counts datagrams dropped because the bounded ingest queue
	// was full — explicit load-shedding instead of blocking the reader
	// and losing datagrams invisibly in the kernel.
	Shed uint64
	// DecodeErrors counts undecodable messages (truncated, malformed,
	// wrong version); NoTemplate counts messages dropped entirely for
	// want of a template.
	DecodeErrors uint64
	NoTemplate   uint64
	// Records counts records handed to the run callback.
	Records uint64
	// Domains holds the decoder's per-observation-domain accounting.
	Domains map[uint32]DomainStats
}

// LostRecords sums transit loss over all observation domains.
func (s CollectorStats) LostRecords() uint64 {
	var n uint64
	for _, d := range s.Domains {
		n += d.LostRecords()
	}
	return n
}

// Health condenses CollectorStats into the operational question: has
// anything been lost, and where?
type Health struct {
	OK           bool
	LostRecords  uint64
	Shed         uint64
	DecodeErrors uint64
}

// String formats the health snapshot as a log line.
func (h Health) String() string {
	if h.OK {
		return "healthy: no record loss"
	}
	return fmt.Sprintf("degraded: %d records lost in transit, %d datagrams shed, %d undecodable messages",
		h.LostRecords, h.Shed, h.DecodeErrors)
}

// exporterStats is a snapshot of an Exporter's delivery accounting.
type exporterStats struct {
	// Messages and Records count successful sends.
	Messages uint64
	Records  uint64
	// Retries counts re-send attempts after transient errors; Redials
	// counts socket replacements made while retrying.
	Retries uint64
	Redials uint64
	// Failures counts messages abandoned after exhausting all
	// attempts. Their records appear at the collector as a sequence
	// gap, so loss stays accounted end to end.
	Failures uint64
}
