package ipfix

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"

	"booterscope/internal/flow"
	"booterscope/internal/telemetry/eventlog"
)

// hostileMsg builds one IPFIX message for domain 9 out of raw sets.
func hostileMsg(sets ...[]byte) []byte {
	n := headerLen
	for _, s := range sets {
		n += len(s)
	}
	msg := binary.BigEndian.AppendUint16(nil, versionIPFIX)
	msg = binary.BigEndian.AppendUint16(msg, uint16(n))
	msg = append(msg, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9)
	for _, s := range sets {
		msg = append(msg, s...)
	}
	return msg
}

func rawSet(id uint16, content ...byte) []byte {
	s := binary.BigEndian.AppendUint16(nil, id)
	s = binary.BigEndian.AppendUint16(s, uint16(setHeaderLen+len(content)))
	return append(s, content...)
}

// templateSet declares template 256 with the given (element, length)
// pairs.
func templateSet(fields ...fieldSpec) []byte {
	c := binary.BigEndian.AppendUint16(nil, 256)
	c = binary.BigEndian.AppendUint16(c, uint16(len(fields)))
	for _, f := range fields {
		c = binary.BigEndian.AppendUint16(c, f.ID)
		c = binary.BigEndian.AppendUint16(c, f.Length)
	}
	return rawSet(templateSetID, c...)
}

// shortAddressCrasher is the 33-byte datagram that used to kill the
// daemon: a template declaring one byte for sourceIPv4Address, and a
// data set the parser then read four bytes out of.
var shortAddressCrasher = hostileMsg(
	templateSet(fieldSpec{ieSourceIPv4Address, 1}),
	rawSet(256, 0x7f),
)

func TestTemplateLengthsValidated(t *testing.T) {
	if len(shortAddressCrasher) != 33 {
		t.Fatalf("crasher is %d bytes, want 33", len(shortAddressCrasher))
	}
	for _, tc := range []struct {
		name string
		tpl  []byte
	}{
		{"one-byte address", templateSet(fieldSpec{ieSourceIPv4Address, 1})},
		{"eight-byte address", templateSet(fieldSpec{ieDestIPv4Address, 8})},
		{"reduced-size timestamp", templateSet(fieldSpec{ieFlowStartMilliseconds, 4})},
		{"zero-length counter", templateSet(fieldSpec{iePacketDeltaCount, 0})},
		{"nine-byte counter", templateSet(fieldSpec{ieOctetDeltaCount, 9})},
		{"three-byte port", templateSet(fieldSpec{ieSourceTransportPort, 3})},
		{"two-byte protocol", templateSet(fieldSpec{ieProtocolIdentifier, 2})},
		{"variable-length unknown element", templateSet(fieldSpec{9999, variableLength})},
		{"no fields", templateSet()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDecoder()
			_, err := d.Decode(hostileMsg(tc.tpl, rawSet(256, 1, 2, 3, 4, 5, 6, 7, 8, 9)))
			if !errors.Is(err, errBadSet) {
				t.Fatalf("Decode = %v, want a refusal wrapping ErrBadSet", err)
			}
			if got := d.m.badTemplates.Value(); got != 1 {
				t.Fatalf("ipfix_decoder_bad_templates_total = %d, want 1", got)
			}
			// The refused template was not stored: its data sets have no
			// template to be read with.
			if _, err := d.Decode(hostileMsg(rawSet(256, 1, 2, 3, 4))); !errors.Is(err, errNoTemplate) {
				t.Fatalf("data set after a refused template: %v, want ErrNoTemplate", err)
			}
		})
	}
}

// TestRefusedRedefinitionWithdrawsTemplate: when an exporter redefines
// a stored id with a template the decoder refuses, its later data sets
// are laid out for the new template; reading them with the old one
// would yield wrong records, so the id is withdrawn.
func TestRefusedRedefinitionWithdrawsTemplate(t *testing.T) {
	d := NewDecoder()
	data := hostileMsg(rawSet(256, 198, 51, 100, 7))
	good := hostileMsg(templateSet(fieldSpec{ieDestIPv4Address, 4}))
	if _, err := d.Decode(good); err != nil {
		t.Fatal(err)
	}
	if recs, err := d.Decode(data); err != nil || len(recs) != 1 {
		t.Fatalf("Decode with the good template = %d records, %v", len(recs), err)
	}
	bad := hostileMsg(templateSet(fieldSpec{ieDestIPv4Address, 4}, fieldSpec{ieFlowStartMilliseconds, 4}))
	if _, err := d.Decode(bad); !errors.Is(err, errBadSet) {
		t.Fatalf("redefinition = %v, want a refusal", err)
	}
	if recs, err := d.Decode(data); !errors.Is(err, errNoTemplate) {
		t.Fatalf("data set after a refused redefinition = %d records, %v; want ErrNoTemplate", len(recs), err)
	}
	if _, err := d.Decode(good); err != nil {
		t.Fatal(err)
	}
	if recs, err := d.Decode(data); err != nil || len(recs) != 1 {
		t.Fatalf("Decode after the template came back = %d records, %v", len(recs), err)
	}
}

// TestReducedSizeCountersDecode: RFC 7011 §6.2 lets an exporter send
// an unsigned element in fewer bytes than its type; those templates
// are legal and must decode to the same values.
func TestReducedSizeCountersDecode(t *testing.T) {
	d := NewDecoder()
	recs, err := d.Decode(hostileMsg(
		templateSet(
			fieldSpec{ieSourceIPv4Address, 4}, fieldSpec{iePacketDeltaCount, 3},
			fieldSpec{ieOctetDeltaCount, 5}, fieldSpec{ieSourceTransportPort, 1},
			fieldSpec{ieBgpSourceAsNumber, 2}, fieldSpec{ieSamplingInterval, 1},
			fieldSpec{9999, 2},
		),
		rawSet(256,
			192, 0, 2, 1, // source
			0x01, 0x02, 0x03, // packets
			0x01, 0x00, 0x00, 0x00, 0x05, // octets
			123,        // port
			0xfd, 0xe8, // AS
			64,         // sampling interval
			0xaa, 0xbb, // skipped unknown element
		),
	))
	if err != nil || len(recs) != 1 {
		t.Fatalf("Decode = %d records, %v", len(recs), err)
	}
	r := recs[0]
	if r.Src.String() != "192.0.2.1" || r.Packets != 0x010203 || r.Bytes != 0x0100000005 ||
		r.SrcPort != 123 || r.SrcAS != 0xfde8 || r.SamplingRate != 64 {
		t.Fatalf("reduced-size record decoded as %+v", r)
	}
}

// TestCollectorSurvivesDecodePanic makes the decoder itself panic — a
// template planted in its table without passing legalLength, then the
// crasher's data set — and checks the datagram is counted as a panic
// and a decode error, an event is recorded, and the datagrams around it
// are delivered as usual.
func TestCollectorSurvivesDecodePanic(t *testing.T) {
	events := eventlog.New(64)
	prev := eventlog.Active()
	eventlog.SetActive(events)
	defer eventlog.SetActive(prev)

	col, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	col.dec.mu.Lock()
	col.dec.templates[9<<16|256] = template{fields: []fieldSpec{{ieSourceIPv4Address, 1}}, recLen: 1}
	col.dec.mu.Unlock()

	delivered := make(chan int, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = col.Run(func(recs []flow.Record) { delivered <- len(recs) })
	}()
	conn, err := net.Dial("udp", col.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	e := &Encoder{DomainID: 3, TemplateRefresh: 1}
	for _, msg := range [][]byte{encodeN(t, e, 2), hostileMsg(rawSet(256, 0x7f)), shortAddressCrasher, encodeN(t, e, 3)} {
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
	}
	// Two decode errors: the panic, and the crasher's refused template.
	waitStats(t, col, func(s CollectorStats) bool { return s.Records == 5 && s.DecodeErrors == 2 })
	if a, b := <-delivered, <-delivered; a != 2 || b != 3 {
		t.Fatalf("datagrams around the panic delivered %d and %d records, want 2 and 3", a, b)
	}
	if got := col.decodePanics.Value(); got != 1 {
		t.Fatalf("ipfix_collector_decode_panics_total = %d, want 1", got)
	}
	if h := col.Health(); h.OK || h.DecodeErrors != 2 {
		t.Fatalf("health after a panic and a refused template = %+v", h)
	}
	panics := 0
	for _, ev := range events.Snapshot() {
		if ev.Kind == "ipfix_decode_panic" {
			panics++
		}
	}
	if panics != 1 {
		t.Fatalf("flight recorder holds %d ipfix_decode_panic events, want 1", panics)
	}
	col.Close()
	<-done
}
