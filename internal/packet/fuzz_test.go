package packet

import (
	"net/netip"
	"testing"
)

func FuzzDecodeIPv4(f *testing.F) {
	f.Add(Build(
		&IPv4{TTL: 64, Protocol: IPProtoUDP, Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("192.0.2.9")},
		&UDP{SrcPort: 123, DstPort: 40000},
		Payload(make([]byte, 458)),
	))
	f.Add(Build(
		&IPv4{TTL: 55, Protocol: ipProtoTCP, Src: netip.MustParseAddr("198.51.100.7"), Dst: netip.MustParseAddr("203.0.113.2")},
		&TCP{SrcPort: 443, DstPort: 51000, Flags: tcpSyn},
	))
	f.Add([]byte{})
	f.Add([]byte{0x45})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeIPv4(data)
		if err != nil {
			return
		}
		// Decoded packets must be internally consistent.
		if d.IPv4 == nil {
			t.Fatal("nil IPv4 layer on successful decode")
		}
		if !d.IPv4.Src.Is4() || !d.IPv4.Dst.Is4() {
			t.Fatal("non-IPv4 addresses decoded")
		}
		if d.UDP != nil && d.TCP != nil {
			t.Fatal("both transport layers set")
		}
	})
}

func FuzzDecodeEthernet(f *testing.F) {
	f.Add(Build(
		&ethernet{EtherType: etherTypeIPv4},
		&IPv4{TTL: 64, Protocol: IPProtoUDP, Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("192.0.2.9")},
		&UDP{SrcPort: 123, DstPort: 40000},
	))
	f.Add(make([]byte, 14))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeEthernet(data)
		if err != nil {
			return
		}
		if d.Ethernet == nil || d.IPv4 == nil {
			t.Fatal("missing layers on successful decode")
		}
	})
}
