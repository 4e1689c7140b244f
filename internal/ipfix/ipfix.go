// Package ipfix implements the IP Flow Information Export protocol
// (IPFIX, RFC 7011): message encoding with template and data sets, plus a
// UDP exporter/collector pair.
//
// The major IXP vantage point in the study provides sampled IPFIX traces;
// booterscope's IXP platform exports its sampled flow view through this
// codec.
package ipfix

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/netutil"
	"booterscope/internal/telemetry"
	"booterscope/internal/telemetry/eventlog"
)

// Protocol constants.
const (
	versionIPFIX   = 10
	headerLen      = 16
	setHeaderLen   = 4
	templateSetID  = 2
	minDataSetID   = 256
	flowTemplateID = 400
)

// Codec errors.
var (
	errBadVersion = errors.New("ipfix: not an IPFIX message")
	errTruncated  = errors.New("ipfix: truncated message")
	errNoTemplate = errors.New("ipfix: data set references unknown template")
	errBadSet     = errors.New("ipfix: malformed set")
)

// IPFIX information element IDs (IANA assigned) used by the flow
// template.
const (
	ieOctetDeltaCount       uint16 = 1
	iePacketDeltaCount      uint16 = 2
	ieProtocolIdentifier    uint16 = 4
	ieSourceTransportPort   uint16 = 7
	ieSourceIPv4Address     uint16 = 8
	ieDestTransportPort     uint16 = 11
	ieDestIPv4Address       uint16 = 12
	ieBgpSourceAsNumber     uint16 = 16
	ieBgpDestAsNumber       uint16 = 17
	ieFlowEndMilliseconds   uint16 = 153
	ieFlowStartMilliseconds uint16 = 152
	ieSamplingInterval      uint16 = 34
)

type fieldSpec struct {
	ID     uint16
	Length uint16
}

// template is one stored data layout: its fields and the record length
// they sum to, computed once when the template set is parsed rather
// than for every data set that uses it.
type template struct {
	fields []fieldSpec
	recLen int
}

// flowTemplate is the information element layout booterscope exports.
var flowTemplate = []fieldSpec{
	{ieSourceIPv4Address, 4}, {ieDestIPv4Address, 4},
	{iePacketDeltaCount, 8}, {ieOctetDeltaCount, 8},
	{ieFlowStartMilliseconds, 8}, {ieFlowEndMilliseconds, 8},
	{ieSourceTransportPort, 2}, {ieDestTransportPort, 2},
	{ieProtocolIdentifier, 1},
	{ieBgpSourceAsNumber, 4}, {ieBgpDestAsNumber, 4},
	{ieSamplingInterval, 4},
}

// variableLength is the template field length announcing a
// variable-length information element (RFC 7011 §7), which this
// decoder does not parse.
const variableLength = 65535

// legalLength reports whether a template may declare n bytes for
// information element id. The data-set parser reads each known element
// at the width its type implies, so the check runs once, at template
// time: unsigned counters accept RFC 7011 §6.2 reduced-size encodings
// (read through netutil.BEUint), addresses and timestamps only their exact
// width. Elements the decoder does not read are skipped by length, so
// any fixed length is acceptable.
func legalLength(id, n uint16) bool {
	switch id {
	case ieSourceIPv4Address, ieDestIPv4Address:
		return n == 4
	case ieFlowStartMilliseconds, ieFlowEndMilliseconds:
		return n == 8
	case iePacketDeltaCount, ieOctetDeltaCount:
		return 1 <= n && n <= 8
	case ieBgpSourceAsNumber, ieBgpDestAsNumber, ieSamplingInterval:
		return 1 <= n && n <= 4
	case ieSourceTransportPort, ieDestTransportPort:
		return 1 <= n && n <= 2
	case ieProtocolIdentifier:
		return n == 1
	}
	return n != variableLength
}

// Encoder builds IPFIX messages.
type Encoder struct {
	// DomainID is the observation domain ID stamped on messages.
	DomainID uint32
	// TemplateRefresh re-emits the template set every N messages
	// (default 20); UDP transports must refresh templates periodically.
	TemplateRefresh int

	// seq is the IPFIX sequence number: a count of exported data
	// records modulo 2^32 (RFC 7011 §3.1). Wraparound is intentional;
	// collectors compute gaps in uint32 arithmetic.
	seq           uint32
	messages      int
	forceTemplate bool
}

// SetSeq positions the sequence number the next message will carry.
// Tests use it to exercise exporter-restart and 2^32-wraparound paths.
//
//bsvet:allow deadcode test seam: TestSeqGapAcrossWraparound and TestSeqResetOnExporterRestart position the sequence to reach wraparound
func (e *Encoder) SetSeq(v uint32) { e.seq = v }

// Seq reports the sequence number the next message will carry.
//
//bsvet:allow deadcode oracle: TestSeqGapAccounting and TestSeqGapAcrossWraparound read the sequence the collector accounts against
func (e *Encoder) Seq() uint32 { return e.seq }

// Encode serializes records into one IPFIX message with exportTime.
func (e *Encoder) Encode(records []flow.Record, exportTime time.Time) ([]byte, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("ipfix: no records to encode")
	}
	refresh := e.TemplateRefresh
	if refresh <= 0 {
		refresh = 20
	}
	withTemplate := e.forceTemplate || e.messages%refresh == 0
	e.forceTemplate = false
	e.messages++

	var body []byte
	if withTemplate {
		var tpl []byte
		tpl = binary.BigEndian.AppendUint16(tpl, flowTemplateID)
		tpl = binary.BigEndian.AppendUint16(tpl, uint16(len(flowTemplate)))
		for _, f := range flowTemplate {
			tpl = binary.BigEndian.AppendUint16(tpl, f.ID)
			tpl = binary.BigEndian.AppendUint16(tpl, f.Length)
		}
		body = binary.BigEndian.AppendUint16(body, templateSetID)
		body = binary.BigEndian.AppendUint16(body, uint16(setHeaderLen+len(tpl)))
		body = append(body, tpl...)
	}

	var data []byte
	for i := range records {
		r := &records[i]
		data = binary.BigEndian.AppendUint32(data, netutil.Addr4Val(r.Src))
		data = binary.BigEndian.AppendUint32(data, netutil.Addr4Val(r.Dst))
		data = binary.BigEndian.AppendUint64(data, r.Packets)
		data = binary.BigEndian.AppendUint64(data, r.Bytes)
		data = binary.BigEndian.AppendUint64(data, uint64(r.Start.UnixMilli()))
		data = binary.BigEndian.AppendUint64(data, uint64(r.End.UnixMilli()))
		data = binary.BigEndian.AppendUint16(data, r.SrcPort)
		data = binary.BigEndian.AppendUint16(data, r.DstPort)
		data = append(data, r.Protocol)
		data = binary.BigEndian.AppendUint32(data, r.SrcAS)
		data = binary.BigEndian.AppendUint32(data, r.DstAS)
		rate := r.SamplingRate
		if rate == 0 {
			rate = 1
		}
		data = binary.BigEndian.AppendUint32(data, rate)
	}
	body = binary.BigEndian.AppendUint16(body, flowTemplateID)
	body = binary.BigEndian.AppendUint16(body, uint16(setHeaderLen+len(data)))
	body = append(body, data...)

	msg := make([]byte, 0, headerLen+len(body))
	msg = binary.BigEndian.AppendUint16(msg, versionIPFIX)
	msg = binary.BigEndian.AppendUint16(msg, uint16(headerLen+len(body)))
	msg = binary.BigEndian.AppendUint32(msg, uint32(exportTime.Unix()))
	msg = binary.BigEndian.AppendUint32(msg, e.seq)
	e.seq += uint32(len(records)) // wraps mod 2^32 by design
	msg = binary.BigEndian.AppendUint32(msg, e.DomainID)
	return append(msg, body...), nil
}

// Sequence-accounting tuning knobs.
const (
	// seqRestartThreshold bounds plausible loss or reordering: a jump
	// of this many records or more (either direction) is treated as an
	// exporter restart rather than a gap.
	seqRestartThreshold = 1 << 30
	// dupRingSize is how many recent sequence numbers are remembered
	// per domain to tell duplicated messages from late (reordered)
	// ones.
	dupRingSize = 64
)

// domainState tracks sequence continuity for one observation domain.
type domainState struct {
	stats DomainStats
	// init is false until the first parsed message seeds expected.
	init bool
	// countValid is false after a message whose record count could not
	// be fully determined (unknown-template sets): the next message
	// re-synchronizes expected without charging a gap.
	countValid bool
	// expected is the sequence number the next in-order message
	// carries: previous seq + previous record count, mod 2^32.
	expected uint32
	ring     [dupRingSize]uint32
	ringLen  int
	ringPos  int
	seen     map[uint32]struct{}
}

func (st *domainState) sawRecently(seq uint32) bool {
	_, ok := st.seen[seq]
	return ok
}

func (st *domainState) remember(seq uint32) {
	if st.sawRecently(seq) {
		return
	}
	if st.ringLen == dupRingSize {
		delete(st.seen, st.ring[st.ringPos])
	} else {
		st.ringLen++
	}
	st.ring[st.ringPos] = seq
	st.seen[seq] = struct{}{}
	st.ringPos = (st.ringPos + 1) % dupRingSize
}

// decoderMetrics aggregate the per-domain sequence accounting across
// all observation domains as registry-ready counters; the per-domain
// DomainStats map remains the exact view, these are its scrapeable sum.
type decoderMetrics struct {
	messages       *telemetry.Counter
	records        *telemetry.Counter
	seqGapRecords  *telemetry.Counter
	seqLateRecords *telemetry.Counter
	duplicates     *telemetry.Counter
	seqResets      *telemetry.Counter
	unknownTplSets *telemetry.Counter
	badTemplates   *telemetry.Counter
}

// Decoder parses IPFIX messages, keeping per-domain template state and
// sequence-gap accounting.
type Decoder struct {
	mu sync.Mutex
	//bsvet:guards mu
	templates map[uint64]template
	//bsvet:guards mu
	domains map[uint32]*domainState
	m       decoderMetrics
}

// NewDecoder returns an empty decoder.
func NewDecoder() *Decoder {
	return &Decoder{
		templates: make(map[uint64]template),
		domains:   make(map[uint32]*domainState),
		m: decoderMetrics{
			messages:       telemetry.NewCounter(),
			records:        telemetry.NewCounter(),
			seqGapRecords:  telemetry.NewCounter(),
			seqLateRecords: telemetry.NewCounter(),
			duplicates:     telemetry.NewCounter(),
			seqResets:      telemetry.NewCounter(),
			unknownTplSets: telemetry.NewCounter(),
			badTemplates:   telemetry.NewCounter(),
		},
	}
}

// registerTelemetry attaches the decoder's aggregate sequence counters
// to r under the ipfix_decoder_* names.
func (d *Decoder) registerTelemetry(r *telemetry.Registry) {
	r.MustRegister("ipfix_decoder_messages_total", "parsed IPFIX messages (all domains)", d.m.messages)
	r.MustRegister("ipfix_decoder_records_total", "decoded flow records (all domains)", d.m.records)
	r.MustRegister("ipfix_decoder_seq_gap_records_total", "records jumped over by sequence gaps", d.m.seqGapRecords)
	r.MustRegister("ipfix_decoder_seq_late_records_total", "reordered records arriving behind the expected sequence", d.m.seqLateRecords)
	r.MustRegister("ipfix_decoder_duplicate_messages_total", "messages with recently seen sequence numbers", d.m.duplicates)
	r.MustRegister("ipfix_decoder_seq_resets_total", "sequence jumps treated as exporter restarts", d.m.seqResets)
	r.MustRegister("ipfix_decoder_unknown_template_sets_total", "data sets skipped for want of a template", d.m.unknownTplSets)
	r.MustRegister("ipfix_decoder_bad_templates_total", "templates refused: no fields, a variable-length field, or a length the element's type does not allow", d.m.badTemplates)
}

// domainStats returns a snapshot of the per-observation-domain
// accounting accumulated so far.
func (d *Decoder) domainStats() map[uint32]DomainStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[uint32]DomainStats, len(d.domains))
	for id, st := range d.domains {
		out[id] = st.stats
	}
	return out
}

func (d *Decoder) domainLocked(id uint32) *domainState {
	st, ok := d.domains[id]
	if !ok {
		st = &domainState{seen: make(map[uint32]struct{})}
		d.domains[id] = st
	}
	return st
}

// Decode parses one IPFIX message and returns its flow records in
// fresh memory the caller may keep.
//
// Data sets referencing templates the decoder has not seen are skipped
// and counted in the domain's DomainStats rather than dropped silently;
// errNoTemplate is returned only when the message yielded nothing at
// all for want of a template. Sequence numbers are checked per domain
// (uint32 wraparound-safe) and gaps, late arrivals, duplicates, and
// restarts are accounted.
func (d *Decoder) Decode(b []byte) ([]flow.Record, error) {
	return d.appendDecode(nil, b)
}

// appendDecode is Decode appending the message's records to dst. On
// any error the rows appended for this message are cut off again, so a
// slab reused across messages never carries a malformed datagram's
// partial rows; the returned slice keeps whatever capacity was grown.
func (d *Decoder) appendDecode(dst []flow.Record, b []byte) ([]flow.Record, error) {
	if len(b) < headerLen {
		return dst, errTruncated
	}
	if binary.BigEndian.Uint16(b) != versionIPFIX {
		return dst, errBadVersion
	}
	msgLen := int(binary.BigEndian.Uint16(b[2:]))
	if msgLen < headerLen || msgLen > len(b) {
		return dst, errTruncated
	}
	seq := binary.BigEndian.Uint32(b[8:])
	domain := binary.BigEndian.Uint32(b[12:])

	d.mu.Lock()
	defer d.mu.Unlock()

	base := len(dst)
	templateSets, unknownSets := 0, 0
	off := headerLen
	for off+setHeaderLen <= msgLen {
		setID := binary.BigEndian.Uint16(b[off:])
		setLen := int(binary.BigEndian.Uint16(b[off+2:]))
		if setLen < setHeaderLen || off+setLen > msgLen {
			return dst[:base], errBadSet
		}
		content := b[off+setHeaderLen : off+setLen]
		switch {
		case setID == templateSetID:
			if err := d.parseTemplatesLocked(domain, content); err != nil {
				return dst[:base], err
			}
			templateSets++
		case setID >= minDataSetID:
			var err error
			dst, err = d.parseDataLocked(dst, domain, setID, content)
			if errors.Is(err, errNoTemplate) {
				unknownSets++
				break
			}
			if err != nil {
				return dst[:base], err
			}
		}
		off += setLen
	}

	n := len(dst) - base
	d.account(domain, seq, n, unknownSets)
	if unknownSets > 0 && n == 0 && templateSets == 0 {
		return dst, errNoTemplate
	}
	return dst, nil
}

// account updates the domain's sequence and drop accounting for one
// parsed message carrying n decoded records. Callers hold d.mu.
func (d *Decoder) account(domain, seq uint32, n, unknownSets int) {
	st := d.domainLocked(domain)
	st.stats.Messages++
	st.stats.Records += uint64(n)
	d.m.messages.Inc()
	d.m.records.Add(uint64(n))
	if unknownSets > 0 {
		st.stats.UnknownTemplateSets += uint64(unknownSets)
		st.stats.UnknownTemplateMessages++
		d.m.unknownTplSets.Add(uint64(unknownSets))
	}

	switch {
	case !st.init:
		st.init = true
		st.expected = seq + uint32(n)
	case !st.countValid:
		// The previous message's record count was incomplete; re-sync
		// without charging a gap we cannot size.
		st.expected = seq + uint32(n)
	default:
		switch diff := int32(seq - st.expected); {
		case diff == 0:
			st.expected = seq + uint32(n)
		case diff > 0 && diff < seqRestartThreshold:
			st.stats.SeqGapRecords += uint64(diff)
			d.m.seqGapRecords.Add(uint64(diff))
			// A gap during an attack window is lost evidence; the flight
			// recorder keeps it next to the detection events it skews.
			eventlog.Active().Emit("ipfix", "ipfix_sequence_gap", 0,
				eventlog.AUint("domain", uint64(domain)),
				eventlog.AUint("expected", uint64(st.expected)),
				eventlog.AUint("got", uint64(seq)),
				eventlog.AUint("gap_records", uint64(diff)))
			st.expected = seq + uint32(n)
		case diff < 0 && diff > -seqRestartThreshold:
			if st.sawRecently(seq) {
				st.stats.DuplicateMessages++
				d.m.duplicates.Inc()
			} else {
				// A reordered message arriving after its gap was
				// charged: its records were not lost after all.
				st.stats.SeqLateRecords += uint64(n)
				d.m.seqLateRecords.Add(uint64(n))
			}
		default:
			st.stats.SeqResets++
			d.m.seqResets.Inc()
			st.expected = seq + uint32(n)
		}
	}
	st.countValid = unknownSets == 0
	st.remember(seq)
}

// parseTemplatesLocked stores one template set. A refused template
// fails the whole message (RFC 7011 §8: a malformed message is
// discarded; its records show up as a sequence gap), and withdraws any
// earlier definition of its id: the exporter has moved to a layout this
// decoder will not read, so that id's data sets must count as
// template-less rather than be decoded with the stale one.
func (d *Decoder) parseTemplatesLocked(domain uint32, b []byte) error {
	off := 0
	for off+4 <= len(b) {
		tid := binary.BigEndian.Uint16(b[off:])
		count := int(binary.BigEndian.Uint16(b[off+2:]))
		off += 4
		if off+count*4 > len(b) {
			return errBadSet
		}
		key := uint64(domain)<<16 | uint64(tid)
		t := template{fields: make([]fieldSpec, count)}
		for i := range t.fields {
			t.fields[i] = fieldSpec{
				ID:     binary.BigEndian.Uint16(b[off:]),
				Length: binary.BigEndian.Uint16(b[off+2:]),
			}
			t.recLen += int(t.fields[i].Length)
			off += 4
		}
		if err := checkTemplate(tid, t.fields); err != nil {
			d.m.badTemplates.Inc()
			delete(d.templates, key)
			return err
		}
		d.templates[key] = t
	}
	return nil
}

func checkTemplate(tid uint16, fields []fieldSpec) error {
	if len(fields) == 0 {
		return fmt.Errorf("%w: template %d has no fields", errBadSet, tid)
	}
	for _, f := range fields {
		if !legalLength(f.ID, f.Length) {
			return fmt.Errorf("%w: template %d declares %d bytes for element %d", errBadSet, tid, f.Length, f.ID)
		}
	}
	return nil
}

// parseDataLocked appends one data set's records to dst, growing it
// once for the whole set. Every slice below is as wide as legalLength
// allowed when the template was stored, so the fixed-width reads cannot
// run past it.
func (d *Decoder) parseDataLocked(dst []flow.Record, domain uint32, tid uint16, b []byte) ([]flow.Record, error) {
	t, ok := d.templates[uint64(domain)<<16|uint64(tid)]
	if !ok {
		return dst, errNoTemplate
	}
	if t.recLen == 0 {
		return dst, errBadSet
	}
	n := len(b) / t.recLen
	if cap(dst)-len(dst) < n {
		// slices.Grow written out: its negative-count panic string
		// would be a second escape here, and under -race its
		// append-of-make is two allocations. Doubling keeps a stream of
		// ever-larger messages from copying the slab quadratically; a
		// reused slab grows only up to the largest message seen.
		grown := make([]flow.Record, len(dst), max(len(dst)+n, 2*cap(dst)))
		copy(grown, dst)
		dst = grown
	}
	first := len(dst)
	dst = dst[:first+n]
	for k := range n {
		rec := &dst[first+k]
		*rec = flow.Record{}
		fo := k * t.recLen
		for _, f := range t.fields {
			v := b[fo : fo+int(f.Length)]
			switch f.ID {
			case ieSourceIPv4Address:
				rec.Src = netutil.Addr4(binary.BigEndian.Uint32(v))
			case ieDestIPv4Address:
				rec.Dst = netutil.Addr4(binary.BigEndian.Uint32(v))
			case iePacketDeltaCount:
				rec.Packets = netutil.BEUint(v)
			case ieOctetDeltaCount:
				rec.Bytes = netutil.BEUint(v)
			case ieFlowStartMilliseconds:
				rec.Start = time.UnixMilli(int64(binary.BigEndian.Uint64(v))).UTC()
			case ieFlowEndMilliseconds:
				rec.End = time.UnixMilli(int64(binary.BigEndian.Uint64(v))).UTC()
			case ieSourceTransportPort:
				rec.SrcPort = uint16(netutil.BEUint(v))
			case ieDestTransportPort:
				rec.DstPort = uint16(netutil.BEUint(v))
			case ieProtocolIdentifier:
				rec.Protocol = v[0]
			case ieBgpSourceAsNumber:
				rec.SrcAS = uint32(netutil.BEUint(v))
			case ieBgpDestAsNumber:
				rec.DstAS = uint32(netutil.BEUint(v))
			case ieSamplingInterval:
				rec.SamplingRate = uint32(netutil.BEUint(v))
			}
			fo += int(f.Length)
		}
		if rec.SamplingRate == 0 {
			rec.SamplingRate = 1
		}
	}
	return dst, nil
}
