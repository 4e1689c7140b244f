package amplify

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"booterscope/internal/netutil"
)

// DNS wire-format constants.
const (
	dnsTypeA    uint16 = 1
	dnsTypeTXT  uint16 = 16
	dnsTypeANY  uint16 = 255
	dnsClassIN  uint16 = 1
	dnsFlagQR   uint16 = 1 << 15
	dnsFlagRD   uint16 = 1 << 8
	dnsFlagRA   uint16 = 1 << 7
	dnsEDNSSize        = 4096
)

// dnsMessage is a decoded DNS message (the subset amplification needs:
// one question plus answer records, no compression pointers emitted).
type dnsMessage struct {
	ID        uint16
	Flags     uint16
	Question  dnsQuestion
	Answers   []dnsRecord
	HasQd     bool
	EDNSSize  uint16 // 0 when no OPT record present
	rawLength int
}

// dnsQuestion is a DNS question entry.
type dnsQuestion struct {
	Name  string
	Type  uint16
	Class uint16
}

// dnsRecord is a DNS resource record.
type dnsRecord struct {
	Name  string
	Type  uint16
	Class uint16
	TTL   uint32
	Data  []byte
}

// DNS decoding errors.
var (
	errDNSTruncated = errors.New("amplify: truncated DNS message")
	errDNSBadName   = errors.New("amplify: malformed DNS name")
)

// appendDNSName encodes a dotted name in label format.
func appendDNSName(b []byte, name string) []byte {
	name = strings.TrimSuffix(name, ".")
	if name != "" {
		for _, label := range strings.Split(name, ".") {
			b = append(b, byte(len(label)))
			b = append(b, label...)
		}
	}
	return append(b, 0)
}

// parseDNSName decodes a label-format name starting at off, returning the
// name and the offset just past it. Compression pointers are followed one
// level (sufficient for the messages this package emits).
func parseDNSName(b []byte, off int) (string, int, error) {
	var sb strings.Builder
	jumped := false
	end := off
	for i := 0; i < 64; i++ { // bound loops on hostile input
		if off >= len(b) {
			return "", 0, errDNSTruncated
		}
		l := int(b[off])
		switch {
		case l == 0:
			if !jumped {
				end = off + 1
			}
			return sb.String(), end, nil
		case l&0xc0 == 0xc0:
			if off+1 >= len(b) {
				return "", 0, errDNSTruncated
			}
			if !jumped {
				end = off + 2
			}
			off = int(binary.BigEndian.Uint16(b[off:]) & 0x3fff)
			jumped = true
		case l > 63:
			return "", 0, errDNSBadName
		default:
			if off+1+l > len(b) {
				return "", 0, errDNSTruncated
			}
			if sb.Len() > 0 {
				sb.WriteByte('.')
			}
			sb.Write(b[off+1 : off+1+l])
			off += 1 + l
		}
	}
	return "", 0, errDNSBadName
}

// encode serializes the message to wire format.
func (m *dnsMessage) encode() []byte {
	b := make([]byte, 0, 512)
	b = binary.BigEndian.AppendUint16(b, m.ID)
	b = binary.BigEndian.AppendUint16(b, m.Flags)
	qd := uint16(0)
	if m.HasQd {
		qd = 1
	}
	b = binary.BigEndian.AppendUint16(b, qd)
	an := uint16(len(m.Answers))
	ar := uint16(0)
	if m.EDNSSize > 0 {
		ar = 1
	}
	b = binary.BigEndian.AppendUint16(b, an)
	b = binary.BigEndian.AppendUint16(b, 0) // NS
	b = binary.BigEndian.AppendUint16(b, ar)
	if m.HasQd {
		b = appendDNSName(b, m.Question.Name)
		b = binary.BigEndian.AppendUint16(b, m.Question.Type)
		b = binary.BigEndian.AppendUint16(b, m.Question.Class)
	}
	for _, rr := range m.Answers {
		b = appendDNSName(b, rr.Name)
		b = binary.BigEndian.AppendUint16(b, rr.Type)
		b = binary.BigEndian.AppendUint16(b, rr.Class)
		b = binary.BigEndian.AppendUint32(b, rr.TTL)
		b = binary.BigEndian.AppendUint16(b, uint16(len(rr.Data)))
		b = append(b, rr.Data...)
	}
	if m.EDNSSize > 0 {
		// OPT pseudo-record: root name, type 41, class = UDP size.
		b = append(b, 0)
		b = binary.BigEndian.AppendUint16(b, 41)
		b = binary.BigEndian.AppendUint16(b, m.EDNSSize)
		b = binary.BigEndian.AppendUint32(b, 0)
		b = binary.BigEndian.AppendUint16(b, 0)
	}
	return b
}

// decodeDNS parses a wire-format DNS message.
func decodeDNS(b []byte) (*dnsMessage, error) {
	if len(b) < 12 {
		return nil, errDNSTruncated
	}
	m := &dnsMessage{
		ID:        binary.BigEndian.Uint16(b[0:]),
		Flags:     binary.BigEndian.Uint16(b[2:]),
		rawLength: len(b),
	}
	qd := binary.BigEndian.Uint16(b[4:])
	an := binary.BigEndian.Uint16(b[6:])
	ar := binary.BigEndian.Uint16(b[10:])
	off := 12
	if qd > 0 {
		name, next, err := parseDNSName(b, off)
		if err != nil {
			return nil, err
		}
		if next+4 > len(b) {
			return nil, errDNSTruncated
		}
		m.HasQd = true
		m.Question = dnsQuestion{
			Name:  name,
			Type:  binary.BigEndian.Uint16(b[next:]),
			Class: binary.BigEndian.Uint16(b[next+2:]),
		}
		off = next + 4
	}
	for i := 0; i < int(an); i++ {
		name, next, err := parseDNSName(b, off)
		if err != nil {
			return nil, err
		}
		if next+10 > len(b) {
			return nil, errDNSTruncated
		}
		rr := dnsRecord{
			Name:  name,
			Type:  binary.BigEndian.Uint16(b[next:]),
			Class: binary.BigEndian.Uint16(b[next+2:]),
			TTL:   binary.BigEndian.Uint32(b[next+4:]),
		}
		dataLen := int(binary.BigEndian.Uint16(b[next+8:]))
		if next+10+dataLen > len(b) {
			return nil, errDNSTruncated
		}
		rr.Data = append([]byte(nil), b[next+10:next+10+dataLen]...)
		m.Answers = append(m.Answers, rr)
		off = next + 10 + dataLen
	}
	if ar > 0 && off+11 <= len(b) && b[off] == 0 && binary.BigEndian.Uint16(b[off+1:]) == 41 {
		m.EDNSSize = binary.BigEndian.Uint16(b[off+3:])
	}
	return m, nil
}

// dnsAny is the "ANY query against an open resolver" amplification
// vector. Domain is the zone queried; booters use zones provisioned with
// large TXT records for maximum gain.
type dnsAny struct {
	Domain string
}

// Vector implements Protocol.
func (dnsAny) Vector() Vector { return DNS }

// BuildRequest returns an EDNS0 ANY query for the configured domain.
func (d dnsAny) BuildRequest(r *netutil.Rand) []byte {
	m := &dnsMessage{
		ID:       uint16(r.Uint64()),
		Flags:    dnsFlagRD,
		HasQd:    true,
		Question: dnsQuestion{Name: d.Domain, Type: dnsTypeANY, Class: dnsClassIN},
		EDNSSize: dnsEDNSSize,
	}
	return m.encode()
}

// BuildResponses returns the resolver's answer: a large response packed
// with TXT and A records, split into EDNS-sized datagrams.
func (d dnsAny) BuildResponses(r *netutil.Rand, request []byte) [][]byte {
	id := uint16(r.Uint64())
	name := d.Domain
	if req, err := decodeDNS(request); err == nil {
		id = req.ID
		if req.HasQd && req.Question.Name != "" {
			name = req.Question.Name
		}
	}
	m := &dnsMessage{
		ID:       id,
		Flags:    dnsFlagQR | dnsFlagRD | dnsFlagRA,
		HasQd:    true,
		Question: dnsQuestion{Name: name, Type: dnsTypeANY, Class: dnsClassIN},
	}
	// A handful of A records plus bulky TXT records.
	for i := 0; i < 4; i++ {
		m.Answers = append(m.Answers, dnsRecord{
			Name: name, Type: dnsTypeA, Class: dnsClassIN, TTL: 3600,
			Data: []byte{198, 51, 100, byte(r.IntN(256))},
		})
	}
	txtCount := 6 + r.IntN(8)
	for i := 0; i < txtCount; i++ {
		txt := make([]byte, 256)
		txt[0] = 255
		for j := 1; j < len(txt); j++ {
			txt[j] = byte('a' + r.IntN(26))
		}
		m.Answers = append(m.Answers, dnsRecord{
			Name: name, Type: dnsTypeTXT, Class: dnsClassIN, TTL: 3600, Data: txt,
		})
	}
	encoded := m.encode()
	// Resolvers answer within the advertised EDNS buffer; split if larger.
	if len(encoded) <= dnsEDNSSize {
		return [][]byte{encoded}
	}
	var out [][]byte
	for len(encoded) > 0 {
		n := dnsEDNSSize
		if n > len(encoded) {
			n = len(encoded)
		}
		out = append(out, encoded[:n])
		encoded = encoded[n:]
	}
	return out
}

// AmplificationFactor implements Protocol.
func (dnsAny) AmplificationFactor() float64 { return 54.6 }

// String describes the vector with its query domain.
func (d dnsAny) String() string { return fmt.Sprintf("DNS ANY %s", d.Domain) }
