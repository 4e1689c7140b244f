package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// FlowSpec (RFC 8955) distributes traffic filtering rules via BGP. Where
// RTBH blackholing (RFC 7999) completes the DoS by dropping everything
// toward the victim, a FlowSpec rule can drop only the attack traffic —
// "discard UDP from source port 123 with packets ≥ 200 bytes toward
// 203.0.113.7/32" — and leave the victim reachable.

// FlowSpec component types (RFC 8955 §4.2).
const (
	fsTypeDstPrefix = 1
	fsTypeProtocol  = 3
	fsTypeSrcPort   = 6
	fsTypePacketLen = 10
)

// fsOp encoding bits for numeric operators.
const (
	fsOpEnd = 0x80 // end-of-list
	fsOpEq  = 0x01 // ==
	fsOpGte = 0x03 // >=  (gt|eq)
	fsLen4  = 0x20 // 4-byte value
)

// FlowSpecRule is one filtering rule. Zero-valued match fields are
// wildcards.
type FlowSpecRule struct {
	// Dst is the destination prefix (required).
	Dst netip.Prefix
	// Protocol matches the IP protocol (0 = any).
	Protocol uint8
	// SrcPort matches the transport source port (0 = any).
	SrcPort uint16
	// MinPacketLen matches packets of at least this size (0 = any).
	MinPacketLen int
}

// FlowSpec errors.
var (
	errFlowSpecNoDst = errors.New("bgp: flowspec rule requires a destination prefix")
	errFlowSpecWire  = errors.New("bgp: malformed flowspec NLRI")
)

// Matches reports whether a packet's attributes hit the rule.
func (r FlowSpecRule) Matches(dst netip.Addr, protocol uint8, srcPort uint16, packetLen int) bool {
	if !r.Dst.Contains(dst) {
		return false
	}
	if r.Protocol != 0 && protocol != r.Protocol {
		return false
	}
	if r.SrcPort != 0 && srcPort != r.SrcPort {
		return false
	}
	if r.MinPacketLen != 0 && packetLen < r.MinPacketLen {
		return false
	}
	return true
}

// String renders the rule in the conventional notation.
func (r FlowSpecRule) String() string {
	s := fmt.Sprintf("match dst %v", r.Dst)
	if r.Protocol != 0 {
		s += fmt.Sprintf(" proto %d", r.Protocol)
	}
	if r.SrcPort != 0 {
		s += fmt.Sprintf(" src-port %d", r.SrcPort)
	}
	if r.MinPacketLen != 0 {
		s += fmt.Sprintf(" pkt-len >= %d", r.MinPacketLen)
	}
	return s + " then discard"
}

// Encode serializes the rule as FlowSpec NLRI (length byte + ordered
// type/value components).
func (r FlowSpecRule) Encode() ([]byte, error) {
	if !r.Dst.IsValid() || !r.Dst.Addr().Is4() {
		return nil, errFlowSpecNoDst
	}
	var body []byte
	// Component 1: destination prefix (type, prefix length, prefix
	// bytes).
	body = append(body, fsTypeDstPrefix, byte(r.Dst.Bits()))
	addr := r.Dst.Masked().Addr().As4()
	nBytes := (r.Dst.Bits() + 7) / 8
	body = append(body, addr[:nBytes]...)
	// Component 3: protocol, ==value.
	if r.Protocol != 0 {
		body = append(body, fsTypeProtocol, fsOpEnd|fsOpEq, r.Protocol)
	}
	// Component 6: source port, ==value (2-byte... encode as 1 or 2).
	if r.SrcPort != 0 {
		if r.SrcPort < 256 {
			body = append(body, fsTypeSrcPort, fsOpEnd|fsOpEq|0x00, byte(r.SrcPort))
		} else {
			body = append(body, fsTypeSrcPort, fsOpEnd|fsOpEq|0x10) // 2-byte value
			body = binary.BigEndian.AppendUint16(body, r.SrcPort)
		}
	}
	// Component 10: packet length >= value (4-byte).
	if r.MinPacketLen != 0 {
		body = append(body, fsTypePacketLen, fsOpEnd|fsOpGte|fsLen4)
		body = binary.BigEndian.AppendUint32(body, uint32(r.MinPacketLen))
	}
	if len(body) > 0xff {
		return nil, errFlowSpecWire
	}
	return append([]byte{byte(len(body))}, body...), nil
}

// DecodeFlowSpec parses NLRI produced by Encode.
func DecodeFlowSpec(b []byte) (FlowSpecRule, error) {
	var r FlowSpecRule
	if len(b) < 1 {
		return r, errFlowSpecWire
	}
	n := int(b[0])
	if len(b) < 1+n {
		return r, errFlowSpecWire
	}
	body := b[1 : 1+n]
	off := 0
	for off < len(body) {
		switch body[off] {
		case fsTypeDstPrefix:
			if off+2 > len(body) {
				return r, errFlowSpecWire
			}
			bits := int(body[off+1])
			nBytes := (bits + 7) / 8
			if bits > 32 || off+2+nBytes > len(body) {
				return r, errFlowSpecWire
			}
			var addr [4]byte
			copy(addr[:], body[off+2:off+2+nBytes])
			r.Dst = netip.PrefixFrom(netip.AddrFrom4(addr), bits)
			off += 2 + nBytes
		case fsTypeProtocol:
			if off+3 > len(body) {
				return r, errFlowSpecWire
			}
			r.Protocol = body[off+2]
			off += 3
		case fsTypeSrcPort:
			if off+2 > len(body) {
				return r, errFlowSpecWire
			}
			op := body[off+1]
			if op&0x10 != 0 { // 2-byte value
				if off+4 > len(body) {
					return r, errFlowSpecWire
				}
				r.SrcPort = binary.BigEndian.Uint16(body[off+2:])
				off += 4
			} else {
				if off+3 > len(body) {
					return r, errFlowSpecWire
				}
				r.SrcPort = uint16(body[off+2])
				off += 3
			}
		case fsTypePacketLen:
			if off+6 > len(body) {
				return r, errFlowSpecWire
			}
			r.MinPacketLen = int(binary.BigEndian.Uint32(body[off+2:]))
			off += 6
		default:
			return r, fmt.Errorf("%w: component type %d", errFlowSpecWire, body[off])
		}
	}
	if !r.Dst.IsValid() {
		return r, errFlowSpecNoDst
	}
	return r, nil
}
