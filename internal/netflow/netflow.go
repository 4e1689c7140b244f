// Package netflow implements encoders and decoders for Cisco NetFlow
// version 5 (fixed-format) and version 9 (template-based) export packets.
//
// The tier-1 and tier-2 ISP vantage points in the study provide NetFlow
// traces; booterscope routers export their flow caches through these
// codecs so the analysis pipeline parses the same wire format a real
// collector would receive.
package netflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"booterscope/internal/flow"
	"booterscope/internal/netutil"
)

// Wire-format sizes.
const (
	v5HeaderLen = 24
	v5RecordLen = 48
	v9HeaderLen = 20

	// MaxV5Records is the per-packet record limit of NetFlow v5.
	MaxV5Records = 30
)

// Codec errors.
var (
	errBadVersion  = errors.New("netflow: unsupported version")
	errTruncated   = errors.New("netflow: truncated packet")
	errTooMany     = errors.New("netflow: too many records for one packet")
	errNoTemplate  = errors.New("netflow: data flowset without known template")
	errNotSampled  = errors.New("netflow: invalid sampling configuration")
	errBadFlowset  = errors.New("netflow: malformed flowset")
	errBadTemplate = errors.New("netflow: malformed template")
)

// V5Exporter encodes flow records into NetFlow v5 packets.
type V5Exporter struct {
	// SamplingRate is the 1-in-N sampling rate advertised in the header
	// (0 or 1 means unsampled).
	SamplingRate uint32
	// BootTime anchors the sysUptime field.
	BootTime time.Time

	seq uint32
}

// EncodeV5 builds one v5 export packet from up to MaxV5Records records.
// now stamps the packet header.
func (e *V5Exporter) EncodeV5(records []flow.Record, now time.Time) ([]byte, error) {
	if len(records) == 0 || len(records) > MaxV5Records {
		return nil, errTooMany
	}
	uptime := uint32(now.Sub(e.BootTime) / time.Millisecond)
	b := make([]byte, 0, v5HeaderLen+len(records)*v5RecordLen)
	b = binary.BigEndian.AppendUint16(b, 5)
	b = binary.BigEndian.AppendUint16(b, uint16(len(records)))
	b = binary.BigEndian.AppendUint32(b, uptime)
	b = binary.BigEndian.AppendUint32(b, uint32(now.Unix()))
	b = binary.BigEndian.AppendUint32(b, uint32(now.Nanosecond()))
	b = binary.BigEndian.AppendUint32(b, e.seq)
	e.seq += uint32(len(records))
	// engine type/id = 0; sampling: mode 01 (packet interval) in top 2 bits.
	b = append(b, 0, 0)
	sampling := uint16(0)
	if e.SamplingRate > 1 {
		if e.SamplingRate > 0x3fff {
			return nil, errNotSampled
		}
		sampling = 1<<14 | uint16(e.SamplingRate)
	}
	b = binary.BigEndian.AppendUint16(b, sampling)

	for i := range records {
		r := &records[i]
		b = binary.BigEndian.AppendUint32(b, netutil.Addr4Val(r.Src))
		b = binary.BigEndian.AppendUint32(b, netutil.Addr4Val(r.Dst))
		b = binary.BigEndian.AppendUint32(b, 0) // nexthop
		b = binary.BigEndian.AppendUint16(b, 0) // input ifindex
		b = binary.BigEndian.AppendUint16(b, 0) // output ifindex
		b = binary.BigEndian.AppendUint32(b, clamp32(r.Packets))
		b = binary.BigEndian.AppendUint32(b, clamp32(r.Bytes))
		b = binary.BigEndian.AppendUint32(b, uint32(r.Start.Sub(e.BootTime)/time.Millisecond))
		b = binary.BigEndian.AppendUint32(b, uint32(r.End.Sub(e.BootTime)/time.Millisecond))
		b = binary.BigEndian.AppendUint16(b, r.SrcPort)
		b = binary.BigEndian.AppendUint16(b, r.DstPort)
		b = append(b, 0, 0, r.Protocol, 0) // pad, tcp flags, prot, tos
		b = binary.BigEndian.AppendUint16(b, uint16(r.SrcAS))
		b = binary.BigEndian.AppendUint16(b, uint16(r.DstAS))
		b = append(b, 0, 0, 0, 0) // masks + padding
	}
	return b, nil
}

func clamp32(v uint64) uint32 {
	if v > 0xffffffff {
		return 0xffffffff
	}
	return uint32(v)
}

// uptimeTime reconstructs an absolute flow time from a 32-bit
// milliseconds-since-boot value and the packet header's (uptime, clock)
// pair. Both the header uptime and the flow offset wrap every ~49.7
// days of router uptime, so anchoring at boot = ts - uptime is wrong as
// soon as a router has been up past the wrap. The signed mod-2^32
// difference against the header uptime is exact regardless of uptime
// whenever the flow time is within ~24.8 days of the export time —
// which holds for any live flow cache.
func uptimeTime(ts time.Time, uptime32, flow32 uint32) time.Time {
	return ts.Add(time.Duration(int32(flow32-uptime32)) * time.Millisecond)
}

// v5Packet is a decoded NetFlow v5 export packet.
type v5Packet struct {
	SysUptime    time.Duration
	Timestamp    time.Time
	Sequence     uint32
	SamplingRate uint32
	Records      []flow.Record
}

// DecodeV5 parses a v5 export packet. Flow timestamps are reconstructed
// from the header's uptime/clock pair.
//
//bsvet:allow deadcode oracle: TestV5RoundTrip and TestScenarioThroughNetFlowToClassifier decode what the V5 exporter cmd/flowgen runs writes
func DecodeV5(b []byte) (*v5Packet, error) {
	if len(b) < v5HeaderLen {
		return nil, errTruncated
	}
	if binary.BigEndian.Uint16(b) != 5 {
		return nil, errBadVersion
	}
	count := int(binary.BigEndian.Uint16(b[2:]))
	if len(b) < v5HeaderLen+count*v5RecordLen {
		return nil, errTruncated
	}
	uptime32 := binary.BigEndian.Uint32(b[4:])
	ts := time.Unix(int64(binary.BigEndian.Uint32(b[8:])), int64(binary.BigEndian.Uint32(b[12:]))).UTC()
	p := &v5Packet{
		SysUptime:    time.Duration(uptime32) * time.Millisecond,
		Timestamp:    ts,
		Sequence:     binary.BigEndian.Uint32(b[16:]),
		SamplingRate: 1,
	}
	sampling := binary.BigEndian.Uint16(b[22:])
	if sampling>>14 == 1 && sampling&0x3fff > 1 {
		p.SamplingRate = uint32(sampling & 0x3fff)
	}
	off := v5HeaderLen
	for i := 0; i < count; i++ {
		rb := b[off : off+v5RecordLen]
		rec := flow.Record{
			Key: flow.Key{
				Src:      netutil.Addr4(binary.BigEndian.Uint32(rb[0:])),
				Dst:      netutil.Addr4(binary.BigEndian.Uint32(rb[4:])),
				SrcPort:  binary.BigEndian.Uint16(rb[32:]),
				DstPort:  binary.BigEndian.Uint16(rb[34:]),
				Protocol: rb[38],
			},
			Packets:      uint64(binary.BigEndian.Uint32(rb[16:])),
			Bytes:        uint64(binary.BigEndian.Uint32(rb[20:])),
			Start:        uptimeTime(ts, uptime32, binary.BigEndian.Uint32(rb[24:])),
			End:          uptimeTime(ts, uptime32, binary.BigEndian.Uint32(rb[28:])),
			SrcAS:        uint32(binary.BigEndian.Uint16(rb[40:])),
			DstAS:        uint32(binary.BigEndian.Uint16(rb[42:])),
			SamplingRate: p.SamplingRate,
		}
		p.Records = append(p.Records, rec)
		off += v5RecordLen
	}
	return p, nil
}

// NetFlow v9 field types used by the booterscope template.
const (
	fieldInBytes  uint16 = 1
	fieldInPkts   uint16 = 2
	fieldProtocol uint16 = 4
	fieldL4Src    uint16 = 7
	fieldIPv4Src  uint16 = 8
	fieldL4Dst    uint16 = 11
	fieldIPv4Dst  uint16 = 12
	fieldSrcAS    uint16 = 16
	fieldDstAS    uint16 = 17
	fieldFirst    uint16 = 22
	fieldLast     uint16 = 21
)

// templateField pairs a v9 field type with its length.
type templateField struct {
	Type   uint16
	Length uint16
}

// booterTemplate is the fixed v9 template booterscope routers export.
var booterTemplate = []templateField{
	{fieldIPv4Src, 4}, {fieldIPv4Dst, 4},
	{fieldInPkts, 8}, {fieldInBytes, 8},
	{fieldFirst, 4}, {fieldLast, 4},
	{fieldL4Src, 2}, {fieldL4Dst, 2},
	{fieldProtocol, 1},
	{fieldSrcAS, 4}, {fieldDstAS, 4},
}

// v9 options-template machinery (RFC 3954 §6.1): exporters advertise
// their sampling configuration out of band; collectors apply it to the
// source's data records.
const (
	booterTemplateID       = 256
	samplingOptsTemplateID = 257
	optionsTemplateFlowset = 1
	fieldSamplingInterval  = 34
	fieldSamplingAlgorithm = 35
	scopeSystem            = 1
)

// V9Exporter encodes flow records into NetFlow v9 packets, emitting the
// template flowset in the first packet (and then every TemplateRefresh
// packets).
type V9Exporter struct {
	// SourceID identifies the exporting observation domain.
	SourceID uint32
	// BootTime anchors relative timestamps.
	BootTime time.Time
	// TemplateRefresh re-emits the template every N packets (default 20).
	TemplateRefresh int
	// SamplingRate advertises the exporter's 1-in-N packet sampling via
	// an options template (0/1 = unsampled). Collectors apply it to all
	// of this source's records.
	SamplingRate uint32

	seq     uint32
	packets int
}

// EncodeV9 builds one v9 export packet carrying all given records.
func (e *V9Exporter) EncodeV9(records []flow.Record, now time.Time) ([]byte, error) {
	if len(records) == 0 {
		return nil, errTooMany
	}
	refresh := e.TemplateRefresh
	if refresh <= 0 {
		refresh = 20
	}
	withTemplate := e.packets%refresh == 0
	e.packets++

	recLen := 0
	for _, f := range booterTemplate {
		recLen += int(f.Length)
	}

	var body []byte
	flowsets := 0
	if withTemplate {
		var tpl []byte
		tpl = binary.BigEndian.AppendUint16(tpl, booterTemplateID)
		tpl = binary.BigEndian.AppendUint16(tpl, uint16(len(booterTemplate)))
		for _, f := range booterTemplate {
			tpl = binary.BigEndian.AppendUint16(tpl, f.Type)
			tpl = binary.BigEndian.AppendUint16(tpl, f.Length)
		}
		body = binary.BigEndian.AppendUint16(body, 0) // template flowset id
		body = binary.BigEndian.AppendUint16(body, uint16(4+len(tpl)))
		body = append(body, tpl...)
		flowsets++

		if e.SamplingRate > 1 {
			// Options template: one System scope, sampling interval +
			// algorithm options.
			var opt []byte
			opt = binary.BigEndian.AppendUint16(opt, samplingOptsTemplateID)
			opt = binary.BigEndian.AppendUint16(opt, 4) // scope length bytes
			opt = binary.BigEndian.AppendUint16(opt, 8) // option length bytes
			opt = binary.BigEndian.AppendUint16(opt, scopeSystem)
			opt = binary.BigEndian.AppendUint16(opt, 4)
			opt = binary.BigEndian.AppendUint16(opt, fieldSamplingInterval)
			opt = binary.BigEndian.AppendUint16(opt, 4)
			opt = binary.BigEndian.AppendUint16(opt, fieldSamplingAlgorithm)
			opt = binary.BigEndian.AppendUint16(opt, 1)
			pad := (4 - (4+len(opt))%4) % 4
			body = binary.BigEndian.AppendUint16(body, optionsTemplateFlowset)
			body = binary.BigEndian.AppendUint16(body, uint16(4+len(opt)+pad))
			body = append(body, opt...)
			body = append(body, make([]byte, pad)...)
			flowsets++

			// Options data record: scope value + sampling interval +
			// algorithm (2 = random... 1 = deterministic; we export 1).
			var data []byte
			data = binary.BigEndian.AppendUint32(data, e.SourceID)
			data = binary.BigEndian.AppendUint32(data, e.SamplingRate)
			data = append(data, 1)
			pad = (4 - (4+len(data))%4) % 4
			body = binary.BigEndian.AppendUint16(body, samplingOptsTemplateID)
			body = binary.BigEndian.AppendUint16(body, uint16(4+len(data)+pad))
			body = append(body, data...)
			body = append(body, make([]byte, pad)...)
			flowsets++
		}
	}

	var data []byte
	for i := range records {
		r := &records[i]
		data = binary.BigEndian.AppendUint32(data, netutil.Addr4Val(r.Src))
		data = binary.BigEndian.AppendUint32(data, netutil.Addr4Val(r.Dst))
		data = binary.BigEndian.AppendUint64(data, r.Packets)
		data = binary.BigEndian.AppendUint64(data, r.Bytes)
		data = binary.BigEndian.AppendUint32(data, uint32(r.Start.Sub(e.BootTime)/time.Millisecond))
		data = binary.BigEndian.AppendUint32(data, uint32(r.End.Sub(e.BootTime)/time.Millisecond))
		data = binary.BigEndian.AppendUint16(data, r.SrcPort)
		data = binary.BigEndian.AppendUint16(data, r.DstPort)
		data = append(data, r.Protocol)
		data = binary.BigEndian.AppendUint32(data, r.SrcAS)
		data = binary.BigEndian.AppendUint32(data, r.DstAS)
	}
	// Pad the data flowset to a 4-byte boundary.
	pad := (4 - (4+len(data))%4) % 4
	body = binary.BigEndian.AppendUint16(body, booterTemplateID)
	body = binary.BigEndian.AppendUint16(body, uint16(4+len(data)+pad))
	body = append(body, data...)
	body = append(body, make([]byte, pad)...)
	flowsets++

	b := make([]byte, 0, v9HeaderLen+len(body))
	b = binary.BigEndian.AppendUint16(b, 9)
	b = binary.BigEndian.AppendUint16(b, uint16(flowsets))
	b = binary.BigEndian.AppendUint32(b, uint32(now.Sub(e.BootTime)/time.Millisecond))
	b = binary.BigEndian.AppendUint32(b, uint32(now.Unix()))
	b = binary.BigEndian.AppendUint32(b, e.seq)
	e.seq++
	b = binary.BigEndian.AppendUint32(b, e.SourceID)
	return append(b, body...), nil
}

// optTemplate is a parsed options template.
type optTemplate struct {
	scopeLen int // total scope bytes
	fields   []templateField
}

// template is a stored v9 data layout: its fields and the record length
// they sum to, computed once when the template flowset is parsed.
type template struct {
	fields []templateField
	recLen int
}

// v9Collector decodes NetFlow v9 packets, tracking templates and
// sampling options per source ID as RFC 3954 requires.
type v9Collector struct {
	templates    map[uint64]template // (sourceID<<16|templateID) -> layout
	optTemplates map[uint64]optTemplate
	sampling     map[uint32]uint32 // sourceID -> advertised 1-in-N rate
	badTemplates uint64
}

// NewV9Collector returns an empty collector.
//
//bsvet:allow deadcode oracle: TestV9RoundTrip and TestScenarioThroughNetFlowToClassifier decode what the V9 exporter cmd/flowgen runs writes
func NewV9Collector() *v9Collector {
	return &v9Collector{
		templates:    make(map[uint64]template),
		optTemplates: make(map[uint64]optTemplate),
		sampling:     make(map[uint32]uint32),
	}
}

// samplingRate reports the advertised sampling rate of a source (1 when
// none was announced).
func (c *v9Collector) samplingRate(sourceID uint32) uint32 {
	if r, ok := c.sampling[sourceID]; ok && r > 1 {
		return r
	}
	return 1
}

// BadTemplates reports how many templates were refused: no fields, or
// a length the field's type does not allow.
//
//bsvet:allow deadcode oracle: TestV9TemplateLengthsValidated checks the oracle decoder refuses bad templates
func (c *v9Collector) BadTemplates() uint64 { return c.badTemplates }

// DecodeV9 parses one v9 packet, returning the flow records of all data
// flowsets whose template is known. Template flowsets update collector
// state. Records referencing unknown templates yield errNoTemplate.
//
//bsvet:allow deadcode oracle: TestV9RoundTrip and TestScenarioThroughNetFlowToClassifier decode what the V9 exporter cmd/flowgen runs writes
func (c *v9Collector) DecodeV9(b []byte) ([]flow.Record, error) {
	if len(b) < v9HeaderLen {
		return nil, errTruncated
	}
	if binary.BigEndian.Uint16(b) != 9 {
		return nil, errBadVersion
	}
	uptime32 := binary.BigEndian.Uint32(b[4:])
	ts := time.Unix(int64(binary.BigEndian.Uint32(b[8:])), 0).UTC()
	sourceID := binary.BigEndian.Uint32(b[16:])

	var out []flow.Record
	off := v9HeaderLen
	for off+4 <= len(b) {
		setID := binary.BigEndian.Uint16(b[off:])
		setLen := int(binary.BigEndian.Uint16(b[off+2:]))
		if setLen < 4 || off+setLen > len(b) {
			return nil, errBadFlowset
		}
		content := b[off+4 : off+setLen]
		switch {
		case setID == 0:
			if err := c.parseTemplates(sourceID, content); err != nil {
				return nil, err
			}
		case setID == optionsTemplateFlowset:
			if err := c.parseOptionsTemplates(sourceID, content); err != nil {
				return nil, err
			}
		case setID >= 256:
			if ot, ok := c.optTemplates[uint64(sourceID)<<16|uint64(setID)]; ok {
				if err := c.parseOptionsData(sourceID, ot, content); err != nil {
					return nil, err
				}
				break
			}
			var err error
			out, err = c.parseData(out, sourceID, setID, content, ts, uptime32)
			if err != nil {
				return nil, err
			}
		}
		off += setLen
	}
	return out, nil
}

// parseOptionsTemplates consumes an options template flowset.
func (c *v9Collector) parseOptionsTemplates(sourceID uint32, b []byte) error {
	off := 0
	for off+6 <= len(b) {
		tid := binary.BigEndian.Uint16(b[off:])
		if tid == 0 {
			break // padding
		}
		scopeBytes := int(binary.BigEndian.Uint16(b[off+2:]))
		optionBytes := int(binary.BigEndian.Uint16(b[off+4:]))
		off += 6
		// Scope and option specs are (type, length) pairs of 4 bytes;
		// a ragged byte count would read a pair past the flowset.
		if scopeBytes%4 != 0 || optionBytes%4 != 0 || off+scopeBytes+optionBytes > len(b) {
			return errBadTemplate
		}
		ot := optTemplate{}
		for so := 0; so < scopeBytes; so += 4 {
			ot.scopeLen += int(binary.BigEndian.Uint16(b[off+so+2:]))
		}
		off += scopeBytes
		for oo := 0; oo < optionBytes; oo += 4 {
			ot.fields = append(ot.fields, templateField{
				Type:   binary.BigEndian.Uint16(b[off+oo:]),
				Length: binary.BigEndian.Uint16(b[off+oo+2:]),
			})
		}
		off += optionBytes
		c.optTemplates[uint64(sourceID)<<16|uint64(tid)] = ot
	}
	return nil
}

// parseOptionsData extracts sampling configuration from options data
// records.
func (c *v9Collector) parseOptionsData(sourceID uint32, ot optTemplate, b []byte) error {
	recLen := ot.scopeLen
	for _, f := range ot.fields {
		recLen += int(f.Length)
	}
	if recLen == 0 {
		return errBadTemplate
	}
	for off := 0; off+recLen <= len(b); off += recLen {
		fo := off + ot.scopeLen
		for _, f := range ot.fields {
			v := b[fo : fo+int(f.Length)]
			if f.Type == fieldSamplingInterval {
				if rate := uint32(netutil.BEUint(v)); rate > 1 {
					c.sampling[sourceID] = rate
				}
			}
			fo += int(f.Length)
		}
	}
	return nil
}

// parseTemplates stores one template flowset. A refused template fails
// the packet and withdraws any earlier definition of its id, so that
// id's data flowsets count as template-less rather than be decoded with
// a layout the exporter has moved away from.
func (c *v9Collector) parseTemplates(sourceID uint32, b []byte) error {
	off := 0
	for off+4 <= len(b) {
		tid := binary.BigEndian.Uint16(b[off:])
		count := int(binary.BigEndian.Uint16(b[off+2:]))
		off += 4
		if off+count*4 > len(b) {
			return errBadTemplate
		}
		key := uint64(sourceID)<<16 | uint64(tid)
		t := template{fields: make([]templateField, count)}
		for i := range t.fields {
			t.fields[i] = templateField{
				Type:   binary.BigEndian.Uint16(b[off:]),
				Length: binary.BigEndian.Uint16(b[off+2:]),
			}
			t.recLen += int(t.fields[i].Length)
			off += 4
		}
		if err := checkTemplate(tid, t.fields); err != nil {
			c.badTemplates++
			delete(c.templates, key)
			return err
		}
		c.templates[key] = t
	}
	return nil
}

func checkTemplate(tid uint16, fields []templateField) error {
	if len(fields) == 0 {
		return fmt.Errorf("%w: template %d has no fields", errBadTemplate, tid)
	}
	for _, f := range fields {
		if !legalLength(f.Type, f.Length) {
			return fmt.Errorf("%w: template %d declares %d bytes for field type %d", errBadTemplate, tid, f.Length, f.Type)
		}
	}
	return nil
}

// legalLength reports whether a template may declare n bytes for field
// type typ. parseData reads each known field at the width its type
// implies, so the check runs once, at template time: counters, ports
// and AS numbers go through netutil.BEUint at any width up to their own,
// addresses and the sysUptime-relative timestamps only at exactly 4
// bytes. Fields the collector does not read are skipped by length.
func legalLength(typ, n uint16) bool {
	switch typ {
	case fieldIPv4Src, fieldIPv4Dst, fieldFirst, fieldLast:
		return n == 4
	case fieldInPkts, fieldInBytes:
		return 1 <= n && n <= 8
	case fieldSrcAS, fieldDstAS:
		return 1 <= n && n <= 4
	case fieldL4Src, fieldL4Dst:
		return 1 <= n && n <= 2
	case fieldProtocol:
		return n == 1
	}
	return true
}

// parseData appends one data flowset's records to dst, growing it once
// for the whole flowset. Every slice below is as wide as legalLength
// allowed when the template was stored, so the fixed-width reads cannot
// run past it.
func (c *v9Collector) parseData(dst []flow.Record, sourceID uint32, tid uint16, b []byte, ts time.Time, uptime32 uint32) ([]flow.Record, error) {
	t, ok := c.templates[uint64(sourceID)<<16|uint64(tid)]
	if !ok {
		return dst, errNoTemplate
	}
	if t.recLen == 0 {
		return dst, errBadTemplate
	}
	n := len(b) / t.recLen
	if cap(dst)-len(dst) < n {
		// Grown as ipfix's parseDataLocked grows its slab.
		grown := make([]flow.Record, len(dst), max(len(dst)+n, 2*cap(dst)))
		copy(grown, dst)
		dst = grown
	}
	first := len(dst)
	dst = dst[:first+n]
	rate := c.samplingRate(sourceID)
	for k := range n {
		rec := &dst[first+k]
		*rec = flow.Record{SamplingRate: rate}
		fo := k * t.recLen
		for _, f := range t.fields {
			v := b[fo : fo+int(f.Length)]
			switch f.Type {
			case fieldIPv4Src:
				rec.Src = netutil.Addr4(binary.BigEndian.Uint32(v))
			case fieldIPv4Dst:
				rec.Dst = netutil.Addr4(binary.BigEndian.Uint32(v))
			case fieldInPkts:
				rec.Packets = netutil.BEUint(v)
			case fieldInBytes:
				rec.Bytes = netutil.BEUint(v)
			case fieldFirst:
				rec.Start = uptimeTime(ts, uptime32, binary.BigEndian.Uint32(v))
			case fieldLast:
				rec.End = uptimeTime(ts, uptime32, binary.BigEndian.Uint32(v))
			case fieldL4Src:
				rec.SrcPort = uint16(netutil.BEUint(v))
			case fieldL4Dst:
				rec.DstPort = uint16(netutil.BEUint(v))
			case fieldProtocol:
				rec.Protocol = v[0]
			case fieldSrcAS:
				rec.SrcAS = uint32(netutil.BEUint(v))
			case fieldDstAS:
				rec.DstAS = uint32(netutil.BEUint(v))
			}
			fo += int(f.Length)
		}
	}
	return dst, nil
}

// Version sniffs the NetFlow version of an export packet.
//
//bsvet:allow deadcode oracle: TestV5RoundTrip and TestV9RoundTrip check the version the exporters write
func Version(b []byte) (int, error) {
	if len(b) < 2 {
		return 0, errTruncated
	}
	v := int(binary.BigEndian.Uint16(b))
	switch v {
	case 5, 9:
		return v, nil
	default:
		return 0, fmt.Errorf("%w: %d", errBadVersion, v)
	}
}
