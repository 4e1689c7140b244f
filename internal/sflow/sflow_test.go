package sflow

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"booterscope/internal/amplify"
	"booterscope/internal/netutil"
	"booterscope/internal/packet"
)

var (
	boot = time.Date(2018, 10, 1, 0, 0, 0, 0, time.UTC)
	now  = boot.Add(48 * time.Hour)
)

// attackPacket builds a monlist-response-sized NTP packet.
func attackPacket(t testing.TB, size int) []byte {
	t.Helper()
	pkt := packet.Build(
		&packet.IPv4{TTL: 60, Protocol: packet.IPProtoUDP,
			Src: netip.MustParseAddr("192.0.2.10"), Dst: netip.MustParseAddr("203.0.113.7")},
		&packet.UDP{SrcPort: 123, DstPort: 41000},
		packet.Payload(make([]byte, size-28)),
	)
	if len(pkt) != size {
		t.Fatalf("packet size %d, want %d", len(pkt), size)
	}
	return pkt
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := &Exporter{Agent: netip.MustParseAddr("10.99.0.1"), SubAgentID: 3, BootTime: boot}
	pkt := attackPacket(t, 490)
	samples := []Sample{{
		SamplingRate: 10000,
		SamplePool:   123456,
		FrameLength:  490,
		Header:       pkt[:MaxHeaderBytes],
	}}
	dgram, err := e.Encode(samples, now)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decode(dgram)
	if err != nil {
		t.Fatal(err)
	}
	if d.Agent != netip.MustParseAddr("10.99.0.1") || d.SubAgentID != 3 {
		t.Errorf("agent = %v/%d", d.Agent, d.SubAgentID)
	}
	if d.Uptime != 48*time.Hour {
		t.Errorf("uptime = %v", d.Uptime)
	}
	if len(d.Samples) != 1 {
		t.Fatalf("samples = %d", len(d.Samples))
	}
	s := d.Samples[0]
	if s.SamplingRate != 10000 || s.SamplePool != 123456 || s.FrameLength != 490 {
		t.Errorf("sample meta = %+v", s)
	}
	if !bytes.Equal(s.Header, pkt[:MaxHeaderBytes]) {
		t.Error("header bytes corrupted")
	}
}

func TestSequenceAdvances(t *testing.T) {
	e := &Exporter{Agent: netip.MustParseAddr("10.99.0.1"), BootTime: boot}
	samples := []Sample{{SamplingRate: 1, FrameLength: 100, Header: attackPacket(t, 100)}}
	d1raw, _ := e.Encode(samples, now)
	d2raw, _ := e.Encode(samples, now)
	d1, _ := Decode(d1raw)
	d2, _ := Decode(d2raw)
	if d1.Sequence != 0 || d2.Sequence != 1 {
		t.Errorf("sequences = %d, %d", d1.Sequence, d2.Sequence)
	}
}

func TestHeaderTruncationAt128(t *testing.T) {
	e := &Exporter{Agent: netip.MustParseAddr("10.99.0.1"), BootTime: boot}
	full := attackPacket(t, 490)
	dgram, err := e.Encode([]Sample{{SamplingRate: 100, FrameLength: 490, Header: full}}, now)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decode(dgram)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Samples[0].Header) != MaxHeaderBytes {
		t.Errorf("header = %d bytes, want %d", len(d.Samples[0].Header), MaxHeaderBytes)
	}
}

func TestSamplePackets(t *testing.T) {
	packets := make([][]byte, 100)
	for i := range packets {
		packets[i] = attackPacket(t, 486)
	}
	samples := SamplePackets(packets, 10)
	if len(samples) != 10 {
		t.Fatalf("samples = %d, want exactly 10 (systematic)", len(samples))
	}
	for _, s := range samples {
		if s.SamplingRate != 10 || s.FrameLength != 486 {
			t.Errorf("sample = %+v", s)
		}
	}
	if got := SamplePackets(packets, 0); len(got) != 100 {
		t.Errorf("rate 0 treated as unsampled: %d", len(got))
	}
}

func TestDecodedPacketsAndRate(t *testing.T) {
	e := &Exporter{Agent: netip.MustParseAddr("10.99.0.1"), BootTime: boot}
	packets := make([][]byte, 1000)
	for i := range packets {
		packets[i] = attackPacket(t, 490)
	}
	samples := SamplePackets(packets, 100)
	dgram, err := e.Encode(samples, now)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decode(dgram)
	if err != nil {
		t.Fatal(err)
	}
	decoded := d.DecodedPackets()
	if len(decoded) != 10 {
		t.Fatalf("decoded = %d", len(decoded))
	}
	for _, ds := range decoded {
		if ds.Packet.UDP == nil || ds.Packet.UDP.SrcPort != amplify.NTP.Port() {
			t.Fatal("decoded header lost the UDP layer")
		}
		// Truncated capture still reports the original IP total length.
		if ds.Packet.TotalLen != 490 {
			t.Errorf("TotalLen = %d", ds.Packet.TotalLen)
		}
		if ds.EstimatedBytes() != 49000 {
			t.Errorf("estimated bytes = %d", ds.EstimatedBytes())
		}
	}
	// 1000 packets x 490 B over 1 s = 3.92 Mbps.
	rate := Bitrate(decoded, time.Second)
	if rate < 3.9*netutil.Gbps/1000 || rate > 3.95*netutil.Gbps/1000 {
		t.Errorf("estimated rate = %v", rate)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err != ErrTruncated {
		t.Errorf("nil err = %v", err)
	}
	bad := make([]byte, 28)
	bad[3] = 4 // version 4
	if _, err := Decode(bad); err != ErrBadVersion {
		t.Errorf("version err = %v", err)
	}
	e := &Exporter{Agent: netip.MustParseAddr("10.99.0.1"), BootTime: boot}
	dgram, _ := e.Encode([]Sample{{SamplingRate: 1, FrameLength: 100, Header: attackPacket(t, 100)}}, now)
	if _, err := Decode(dgram[:40]); err == nil {
		t.Error("truncated datagram accepted")
	}
}

func TestEncodeEmpty(t *testing.T) {
	e := &Exporter{Agent: netip.MustParseAddr("10.99.0.1"), BootTime: boot}
	if _, err := e.Encode(nil, now); err == nil {
		t.Error("empty encode should fail")
	}
}

func FuzzDecode(f *testing.F) {
	e := &Exporter{Agent: netip.MustParseAddr("10.99.0.1"), BootTime: boot}
	pkt := packet.Build(
		&packet.IPv4{TTL: 60, Protocol: packet.IPProtoUDP,
			Src: netip.MustParseAddr("192.0.2.10"), Dst: netip.MustParseAddr("203.0.113.7")},
		&packet.UDP{SrcPort: 123, DstPort: 41000},
		packet.Payload(make([]byte, 64)),
	)
	dgram, _ := e.Encode([]Sample{{SamplingRate: 10, FrameLength: uint32(len(pkt)), Header: pkt}}, now)
	f.Add(dgram)
	f.Add([]byte{0, 0, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(data)
		if err != nil {
			return
		}
		_ = d.DecodedPackets() // must not panic on adversarial headers
	})
}

func BenchmarkEncodeDecode(b *testing.B) {
	e := &Exporter{Agent: netip.MustParseAddr("10.99.0.1"), BootTime: boot}
	pkt := packet.Build(
		&packet.IPv4{TTL: 60, Protocol: packet.IPProtoUDP,
			Src: netip.MustParseAddr("192.0.2.10"), Dst: netip.MustParseAddr("203.0.113.7")},
		&packet.UDP{SrcPort: 123, DstPort: 41000},
		packet.Payload(make([]byte, 462)),
	)
	samples := make([]Sample, 32)
	for i := range samples {
		samples[i] = Sample{SamplingRate: 10000, FrameLength: 490, Header: pkt[:MaxHeaderBytes]}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dgram, err := e.Encode(samples, now)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(dgram); err != nil {
			b.Fatal(err)
		}
	}
}
