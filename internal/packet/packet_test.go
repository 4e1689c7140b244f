package packet

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestBuildDecodeUDPRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte{0xab}, 100)
	pkt := Build(
		&ethernet{Dst: mac{1, 2, 3, 4, 5, 6}, Src: mac{6, 5, 4, 3, 2, 1}, EtherType: etherTypeIPv4},
		&IPv4{TTL: 64, Protocol: IPProtoUDP, Src: mustAddr("10.0.0.1"), Dst: mustAddr("192.0.2.9"), Flags: iPv4DontFragment},
		&UDP{SrcPort: 123, DstPort: 40000},
		Payload(payload),
	)
	if len(pkt) != 14+20+8+100 {
		t.Fatalf("packet length = %d, want %d", len(pkt), 14+20+8+100)
	}
	d, err := DecodeEthernet(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if d.Ethernet.Src != (mac{6, 5, 4, 3, 2, 1}) {
		t.Errorf("eth src = %v", d.Ethernet.Src)
	}
	if d.IPv4.Src != mustAddr("10.0.0.1") || d.IPv4.Dst != mustAddr("192.0.2.9") {
		t.Errorf("ip addrs = %v -> %v", d.IPv4.Src, d.IPv4.Dst)
	}
	if d.IPv4.Flags != iPv4DontFragment {
		t.Errorf("flags = %#b", d.IPv4.Flags)
	}
	if d.UDP.SrcPort != 123 || d.UDP.DstPort != 40000 {
		t.Errorf("udp ports = %d -> %d", d.UDP.SrcPort, d.UDP.DstPort)
	}
	if !bytes.Equal(d.Payload, payload) {
		t.Error("payload mismatch")
	}
	if d.TotalLen != 20+8+100 {
		t.Errorf("TotalLen = %d", d.TotalLen)
	}
}

func TestBuildDecodeTCPRoundTrip(t *testing.T) {
	pkt := Build(
		&IPv4{TTL: 55, Protocol: ipProtoTCP, Src: mustAddr("198.51.100.7"), Dst: mustAddr("203.0.113.2")},
		&TCP{SrcPort: 443, DstPort: 51000, Seq: 0xdeadbeef, Ack: 42, Flags: tcpSyn | tcpAck, Window: 65535},
		Payload("hello"),
	)
	d, err := DecodeIPv4(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if d.TCP == nil {
		t.Fatal("no TCP layer decoded")
	}
	if d.TCP.Seq != 0xdeadbeef || d.TCP.Ack != 42 {
		t.Errorf("seq/ack = %x/%d", d.TCP.Seq, d.TCP.Ack)
	}
	if d.TCP.Flags != tcpSyn|tcpAck {
		t.Errorf("flags = %#x", d.TCP.Flags)
	}
	if string(d.Payload) != "hello" {
		t.Errorf("payload = %q", d.Payload)
	}
}

func TestIPv4Options(t *testing.T) {
	opts := []byte{0x01, 0x01, 0x01, 0x00} // NOPs + EOL, 4 bytes
	pkt := Build(
		&IPv4{TTL: 1, Protocol: IPProtoUDP, Src: mustAddr("1.1.1.1"), Dst: mustAddr("2.2.2.2"), Options: opts},
		&UDP{SrcPort: 1, DstPort: 2},
	)
	d, err := DecodeIPv4(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.IPv4.Options, opts) {
		t.Errorf("options = %x", d.IPv4.Options)
	}
}

func TestChecksumValidation(t *testing.T) {
	pkt := Build(
		&IPv4{TTL: 64, Protocol: IPProtoUDP, Src: mustAddr("10.0.0.1"), Dst: mustAddr("10.0.0.2")},
		&UDP{SrcPort: 5, DstPort: 6},
	)
	pkt[8] ^= 0xff // corrupt TTL without fixing checksum
	if _, err := DecodeIPv4(pkt); err != errBadChecksum {
		t.Errorf("err = %v, want ErrBadChecksum", err)
	}
}

func TestChecksumRFC1071Example(t *testing.T) {
	// Classic example from RFC 1071 §3.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := checksum(data); got != ^uint16(0xddf2) {
		t.Errorf("checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	// An odd final byte is padded with zero on the right.
	even := checksum([]byte{0x12, 0x34, 0x56, 0x00})
	odd := checksum([]byte{0x12, 0x34, 0x56})
	if even != odd {
		t.Errorf("odd-length checksum %#x != padded %#x", odd, even)
	}
}

func TestDecodeTruncated(t *testing.T) {
	for _, n := range []int{0, 5, 13} {
		if _, err := DecodeEthernet(make([]byte, n)); err != errTruncated {
			t.Errorf("DecodeEthernet(%d bytes) err = %v", n, err)
		}
	}
	if _, err := DecodeIPv4(make([]byte, 10)); err != errTruncated {
		t.Errorf("short IPv4 err = %v", err)
	}
}

func TestDecodeNonIPv4EtherType(t *testing.T) {
	pkt := Build(
		&ethernet{EtherType: 0x86dd}, // IPv6
		Payload(make([]byte, 40)),
	)
	if _, err := DecodeEthernet(pkt); err != errNotIPv4 {
		t.Errorf("err = %v, want ErrNotIPv4", err)
	}
}

func TestDecodeBadVersion(t *testing.T) {
	b := make([]byte, 20)
	b[0] = 6 << 4
	if _, err := DecodeIPv4(b); err != errNotIPv4 {
		t.Errorf("err = %v, want ErrNotIPv4", err)
	}
}

func TestDecodeBadIHL(t *testing.T) {
	pkt := Build(
		&IPv4{TTL: 64, Protocol: IPProtoUDP, Src: mustAddr("10.0.0.1"), Dst: mustAddr("10.0.0.2")},
		&UDP{SrcPort: 5, DstPort: 6},
	)
	pkt[0] = 4<<4 | 4 // IHL of 16 bytes: below minimum
	if _, err := DecodeIPv4(pkt); err != errBadIHL {
		t.Errorf("err = %v, want ErrBadIHL", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(srcPort, dstPort uint16, src, dst uint32, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		sa := netip.AddrFrom4([4]byte{byte(src >> 24), byte(src >> 16), byte(src >> 8), byte(src)})
		da := netip.AddrFrom4([4]byte{byte(dst >> 24), byte(dst >> 16), byte(dst >> 8), byte(dst)})
		pkt := Build(
			&IPv4{TTL: 64, Protocol: IPProtoUDP, Src: sa, Dst: da},
			&UDP{SrcPort: srcPort, DstPort: dstPort},
			Payload(payload),
		)
		d, err := DecodeIPv4(pkt)
		if err != nil {
			return false
		}
		return d.UDP.SrcPort == srcPort && d.UDP.DstPort == dstPort &&
			d.IPv4.Src == sa && d.IPv4.Dst == da && bytes.Equal(d.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLayerTypeStrings(t *testing.T) {
	if LayerTypeIPv4.String() != "IPv4" || LayerTypeUDP.String() != "UDP" {
		t.Error("unexpected layer type names")
	}
	if layerType(99).String() != "LayerType(99)" {
		t.Errorf("unknown layer type = %q", layerType(99).String())
	}
}

func TestMACString(t *testing.T) {
	m := mac{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if got := m.String(); got != "de:ad:be:ef:00:01" {
		t.Errorf("MAC.String() = %q", got)
	}
}

func TestUDPLengthField(t *testing.T) {
	pkt := Build(
		&IPv4{TTL: 64, Protocol: IPProtoUDP, Src: mustAddr("10.0.0.1"), Dst: mustAddr("10.0.0.2")},
		&UDP{SrcPort: 123, DstPort: 123},
		Payload(make([]byte, 468)),
	)
	// UDP length lives at IP header (20) + 4.
	udpLen := int(pkt[24])<<8 | int(pkt[25])
	if udpLen != 8+468 {
		t.Errorf("UDP length field = %d, want %d", udpLen, 8+468)
	}
}

func BenchmarkBuildUDP(b *testing.B) {
	ip := &IPv4{TTL: 64, Protocol: IPProtoUDP, Src: mustAddr("10.0.0.1"), Dst: mustAddr("10.0.0.2")}
	udp := &UDP{SrcPort: 123, DstPort: 40000}
	payload := Payload(make([]byte, 468))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Build(ip, udp, payload)
	}
}

func BenchmarkDecodeIPv4(b *testing.B) {
	pkt := Build(
		&IPv4{TTL: 64, Protocol: IPProtoUDP, Src: mustAddr("10.0.0.1"), Dst: mustAddr("10.0.0.2")},
		&UDP{SrcPort: 123, DstPort: 40000},
		Payload(make([]byte, 468)),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeIPv4(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

// TCP flag bits the round-trip tests set.
const (
	tcpSyn uint8 = 0x02
	tcpAck uint8 = 0x10
)
