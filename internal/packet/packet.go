// Package packet implements a small, dependency-free packet layer codec in
// the spirit of gopacket: typed layers (Ethernet, IPv4, UDP, TCP, Payload)
// that serialize to and decode from wire-format bytes.
//
// The booterscope simulators generate attack and background traffic as real
// packets so that downstream components (flow builders, classifiers, pcap
// writers) operate on the same byte layouts a production collector would
// see. Only the fields the study needs are modeled; options and extension
// headers are preserved as opaque bytes where they occur.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// layerType identifies a decoded protocol layer.
type layerType uint8

// Known layer types.
const (
	LayerTypeEthernet layerType = iota + 1
	LayerTypeIPv4
	LayerTypeUDP
	LayerTypeTCP
	LayerTypePayload
)

// String returns the layer type name.
func (t layerType) String() string {
	switch t {
	case LayerTypeEthernet:
		return "Ethernet"
	case LayerTypeIPv4:
		return "IPv4"
	case LayerTypeUDP:
		return "UDP"
	case LayerTypeTCP:
		return "TCP"
	case LayerTypePayload:
		return "Payload"
	default:
		return fmt.Sprintf("LayerType(%d)", uint8(t))
	}
}

// Layer is a protocol layer that can report its type and serialize itself.
type Layer interface {
	// layerType reports which protocol this layer represents.
	LayerType() layerType
	// SerializeTo appends the wire representation of the layer to b and
	// returns the extended slice. payloadLen is the total length of all
	// layers that follow, which length/checksum fields may need.
	SerializeTo(b []byte, payloadLen int) []byte
	// headerLen reports the serialized header size in bytes.
	headerLen() int
}

// Common protocol numbers and EtherTypes.
const (
	etherTypeIPv4 uint16 = 0x0800

	ipProtoTCP uint8 = 6
	IPProtoUDP uint8 = 17
)

// mac is a 48-bit Ethernet hardware address.
type mac [6]byte

// String formats the MAC in colon-separated hex.
func (m mac) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// ethernet is an Ethernet II frame header.
type ethernet struct {
	Dst       mac
	Src       mac
	EtherType uint16
}

// LayerType implements Layer.
func (e *ethernet) LayerType() layerType { return LayerTypeEthernet }

func (e *ethernet) headerLen() int { return 14 }

// SerializeTo implements Layer.
func (e *ethernet) SerializeTo(b []byte, _ int) []byte {
	b = append(b, e.Dst[:]...)
	b = append(b, e.Src[:]...)
	return binary.BigEndian.AppendUint16(b, e.EtherType)
}

// IPv4 is an IPv4 header. Options are carried verbatim; the IHL field is
// derived from their length at serialization time.
type IPv4 struct {
	TOS      uint8
	ID       uint16
	Flags    uint8 // 3-bit flags field (DF = 0b010)
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Src      netip.Addr
	Dst      netip.Addr
	Options  []byte // length must be a multiple of 4
}

// IPv4 flag bits.
const (
	iPv4DontFragment  uint8 = 0b010
	iPv4MoreFragments uint8 = 0b001
)

// LayerType implements Layer.
func (ip *IPv4) LayerType() layerType { return LayerTypeIPv4 }

func (ip *IPv4) headerLen() int { return 20 + len(ip.Options) }

// SerializeTo implements Layer.
func (ip *IPv4) SerializeTo(b []byte, payloadLen int) []byte {
	hl := ip.headerLen()
	total := hl + payloadLen
	start := len(b)
	b = append(b, byte(4<<4|hl/4), ip.TOS)
	b = binary.BigEndian.AppendUint16(b, uint16(total))
	b = binary.BigEndian.AppendUint16(b, ip.ID)
	b = binary.BigEndian.AppendUint16(b, uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	b = append(b, ip.TTL, ip.Protocol, 0, 0) // checksum filled below
	src, dst := ip.Src.As4(), ip.Dst.As4()
	b = append(b, src[:]...)
	b = append(b, dst[:]...)
	b = append(b, ip.Options...)
	cs := checksum(b[start : start+hl])
	binary.BigEndian.PutUint16(b[start+10:], cs)
	return b
}

// UDP is a UDP header. The checksum is computed over the IPv4
// pseudo-header when the packet is built via Build; standalone
// serialization leaves it zero (legal for IPv4).
type UDP struct {
	SrcPort uint16
	DstPort uint16
}

// LayerType implements Layer.
func (u *UDP) LayerType() layerType { return LayerTypeUDP }

func (u *UDP) headerLen() int { return 8 }

// SerializeTo implements Layer.
func (u *UDP) SerializeTo(b []byte, payloadLen int) []byte {
	b = binary.BigEndian.AppendUint16(b, u.SrcPort)
	b = binary.BigEndian.AppendUint16(b, u.DstPort)
	b = binary.BigEndian.AppendUint16(b, uint16(8+payloadLen))
	return append(b, 0, 0) // checksum optional for IPv4
}

// TCP is a minimal TCP header (no options).
type TCP struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8 // FIN=0x01 SYN=0x02 RST=0x04 PSH=0x08 ACK=0x10
	Window  uint16
}

// LayerType implements Layer.
func (t *TCP) LayerType() layerType { return LayerTypeTCP }

func (t *TCP) headerLen() int { return 20 }

// SerializeTo implements Layer.
func (t *TCP) SerializeTo(b []byte, _ int) []byte {
	b = binary.BigEndian.AppendUint16(b, t.SrcPort)
	b = binary.BigEndian.AppendUint16(b, t.DstPort)
	b = binary.BigEndian.AppendUint32(b, t.Seq)
	b = binary.BigEndian.AppendUint32(b, t.Ack)
	b = append(b, 5<<4, t.Flags)
	b = binary.BigEndian.AppendUint16(b, t.Window)
	return append(b, 0, 0, 0, 0) // checksum + urgent pointer
}

// Payload is opaque application data.
type Payload []byte

// LayerType implements Layer.
func (p Payload) LayerType() layerType { return LayerTypePayload }

func (p Payload) headerLen() int { return len(p) }

// SerializeTo implements Layer.
func (p Payload) SerializeTo(b []byte, _ int) []byte { return append(b, p...) }

// Build serializes the given layers outermost-first into a single packet.
// Length fields are derived from the sizes of inner layers.
func Build(layers ...Layer) []byte {
	// Compute the payload length below each layer.
	below := make([]int, len(layers))
	total := 0
	for i := len(layers) - 1; i >= 0; i-- {
		below[i] = total
		total += layers[i].headerLen()
	}
	b := make([]byte, 0, total)
	for i, l := range layers {
		b = l.SerializeTo(b, below[i])
	}
	return b
}

// checksum computes the Internet checksum (RFC 1071) over b.
func checksum(b []byte) uint16 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// Decoded is the result of parsing a packet: the layers present and the
// application payload.
type Decoded struct {
	Ethernet *ethernet
	IPv4     *IPv4
	UDP      *UDP
	TCP      *TCP
	Payload  []byte
	// TotalLen is the IPv4 total length field, i.e. the on-the-wire size
	// of the IP packet even if the capture was truncated.
	TotalLen int
}

// Decoding errors.
var (
	errTruncated   = errors.New("packet: truncated")
	errNotIPv4     = errors.New("packet: not an IPv4 packet")
	errBadIHL      = errors.New("packet: bad IPv4 header length")
	errBadChecksum = errors.New("packet: bad IPv4 header checksum")
)

// DecodeEthernet parses an Ethernet frame and everything it carries.
//
//bsvet:allow deadcode oracle: TestDecodeNonIPv4EtherType and FuzzDecodeEthernet read the Ethernet framing the pcap capture writes
func DecodeEthernet(b []byte) (*Decoded, error) {
	if len(b) < 14 {
		return nil, errTruncated
	}
	eth := &ethernet{EtherType: binary.BigEndian.Uint16(b[12:14])}
	copy(eth.Dst[:], b[0:6])
	copy(eth.Src[:], b[6:12])
	if eth.EtherType != etherTypeIPv4 {
		return nil, errNotIPv4
	}
	d, err := DecodeIPv4(b[14:])
	if err != nil {
		return nil, err
	}
	d.Ethernet = eth
	return d, nil
}

// DecodeIPv4 parses an IPv4 packet and its transport layer. The header
// checksum is verified.
func DecodeIPv4(b []byte) (*Decoded, error) {
	if len(b) < 20 {
		return nil, errTruncated
	}
	if b[0]>>4 != 4 {
		return nil, errNotIPv4
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < 20 || ihl > len(b) {
		return nil, errBadIHL
	}
	if checksum(b[:ihl]) != 0 {
		return nil, errBadChecksum
	}
	ip := &IPv4{
		TOS:      b[1],
		ID:       binary.BigEndian.Uint16(b[4:6]),
		Flags:    b[6] >> 5,
		FragOff:  binary.BigEndian.Uint16(b[6:8]) & 0x1fff,
		TTL:      b[8],
		Protocol: b[9],
		Src:      netip.AddrFrom4([4]byte(b[12:16])),
		Dst:      netip.AddrFrom4([4]byte(b[16:20])),
	}
	if ihl > 20 {
		ip.Options = append([]byte(nil), b[20:ihl]...)
	}
	totalLen := int(binary.BigEndian.Uint16(b[2:4]))
	d := &Decoded{IPv4: ip, TotalLen: totalLen}
	end := totalLen
	if end > len(b) || end < ihl {
		end = len(b) // truncated or inconsistent capture: take what we have
	}
	rest := b[ihl:end]
	switch ip.Protocol {
	case IPProtoUDP:
		if len(rest) < 8 {
			return nil, errTruncated
		}
		d.UDP = &UDP{
			SrcPort: binary.BigEndian.Uint16(rest[0:2]),
			DstPort: binary.BigEndian.Uint16(rest[2:4]),
		}
		d.Payload = rest[8:]
	case ipProtoTCP:
		if len(rest) < 20 {
			return nil, errTruncated
		}
		dataOff := int(rest[12]>>4) * 4
		if dataOff < 20 || dataOff > len(rest) {
			return nil, errBadIHL
		}
		d.TCP = &TCP{
			SrcPort: binary.BigEndian.Uint16(rest[0:2]),
			DstPort: binary.BigEndian.Uint16(rest[2:4]),
			Seq:     binary.BigEndian.Uint32(rest[4:8]),
			Ack:     binary.BigEndian.Uint32(rest[8:12]),
			Flags:   rest[13],
			Window:  binary.BigEndian.Uint16(rest[14:16]),
		}
		d.Payload = rest[dataOff:]
	default:
		d.Payload = rest
	}
	return d, nil
}
