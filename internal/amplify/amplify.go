// Package amplify models UDP amplification protocols abused by booter
// services: NTP (mode-7 monlist), DNS, CLDAP, Memcached, SSDP, and
// Chargen.
//
// Each protocol knows how to build genuine wire-format request payloads
// (what a booter sends to a reflector with a spoofed source) and the
// response payloads the reflector sends to the victim. The byte sizes of
// the generated responses match the distributions reported in the paper —
// amplified NTP packets, for instance, have an IP total length of 486 or
// 490 bytes, the fingerprint the study's classifier keys on.
package amplify

import (
	"fmt"

	"booterscope/internal/netutil"
)

// Vector identifies an amplification protocol.
type Vector uint8

// Supported amplification vectors.
const (
	NTP Vector = iota + 1
	DNS
	CLDAP
	Memcached
	SSDP
	Chargen
)

// String returns the conventional protocol name.
func (v Vector) String() string {
	switch v {
	case NTP:
		return "NTP"
	case DNS:
		return "DNS"
	case CLDAP:
		return "CLDAP"
	case Memcached:
		return "memcached"
	case SSDP:
		return "SSDP"
	case Chargen:
		return "chargen"
	default:
		return fmt.Sprintf("Vector(%d)", uint8(v))
	}
}

// Port returns the UDP port the protocol's reflectors listen on.
func (v Vector) Port() uint16 {
	switch v {
	case NTP:
		return 123
	case DNS:
		return 53
	case CLDAP:
		return 389
	case Memcached:
		return 11211
	case SSDP:
		return 1900
	case Chargen:
		return 19
	default:
		return 0
	}
}

// Protocol builds request and response payloads for one amplification
// vector.
type Protocol interface {
	// Vector reports which protocol this is.
	Vector() Vector
	// BuildRequest returns the UDP payload a booter sends to a reflector
	// (with the victim's address spoofed as source).
	BuildRequest(r *netutil.Rand) []byte
	// BuildResponses returns the UDP payloads the reflector emits toward
	// the victim in reaction to one request. Large answers span several
	// datagrams.
	BuildResponses(r *netutil.Rand, request []byte) [][]byte
	// AmplificationFactor is the typical bytes(response)/bytes(request)
	// ratio, used for capacity planning in the attack engine.
	AmplificationFactor() float64
}

// ForVector returns the Protocol implementation for v.
func ForVector(v Vector) (Protocol, error) {
	switch v {
	case NTP:
		return ntpMonlist{}, nil
	case DNS:
		return dnsAny{Domain: "example.com"}, nil
	case CLDAP:
		return cldapSearch{}, nil
	case Memcached:
		return memcachedStats{}, nil
	case SSDP:
		return ssdpSearch{}, nil
	case Chargen:
		return chargenAny{}, nil
	default:
		return nil, fmt.Errorf("amplify: unknown vector %v", v)
	}
}

// ipUDPOverhead is the byte overhead of IPv4 + UDP headers, used when a
// protocol needs its responses to hit specific IP total lengths.
const ipUDPOverhead = 28

// ntpMonlist is the NTP mode-7 MON_GETLIST_1 amplification vector, the
// most reliable booter attack observed in the study.
type ntpMonlist struct{}

// NTP mode-7 constants.
const (
	ntpImplXNTPD      = 3
	ntpReqMonGetList1 = 42
	ntpMonlistEntry   = 72 // bytes per monitor list entry
)

// MonlistResponseIPLens are the IP total lengths of monlist response
// packets observed in the self-attacks (98.62 % of attack packets).
var MonlistResponseIPLens = []int{486, 490}

// Vector implements Protocol.
func (ntpMonlist) Vector() Vector { return NTP }

// BuildRequest returns an 8-byte mode-7 MON_GETLIST_1 request.
func (ntpMonlist) BuildRequest(_ *netutil.Rand) []byte {
	// LI=0, version=2, mode=7 | auth/sequence | implementation | request
	// code, then 4 zero bytes (err/nitems/mbz/size).
	return []byte{0x17, 0x00, ntpImplXNTPD, ntpReqMonGetList1, 0, 0, 0, 0}
}

// BuildResponses returns a burst of monlist response datagrams. A full
// monlist answer spans up to 100 packets of 6 entries each; booter-driven
// reflectors typically return 10–100 packets per request.
func (n ntpMonlist) BuildResponses(r *netutil.Rand, _ []byte) [][]byte {
	packets := 10 + r.IntN(91) // 10..100
	out := make([][]byte, packets)
	for i := range out {
		out[i] = n.responsePacket(r, i, packets)
	}
	return out
}

// responsePacket builds one mode-7 response datagram whose IP total length
// is one of MonlistResponseIPLens.
func (ntpMonlist) responsePacket(r *netutil.Rand, seq, total int) []byte {
	ipLen := MonlistResponseIPLens[r.IntN(len(MonlistResponseIPLens))]
	payloadLen := ipLen - ipUDPOverhead
	b := make([]byte, payloadLen)
	// Response bit set, more bit set unless last packet.
	first := byte(0x97) // R=1, LI/VN/mode 7
	if seq == total-1 {
		first = 0x87 // more bit clear
	}
	b[0] = first
	b[1] = byte(seq)
	b[2] = ntpImplXNTPD
	b[3] = ntpReqMonGetList1
	// nitems: 6 entries of 72 bytes, remainder is padding the classifier
	// never inspects.
	b[5] = 6
	b[7] = ntpMonlistEntry
	for i := 8; i < payloadLen; i++ {
		b[i] = byte(r.Uint64())
	}
	return b
}

// AmplificationFactor implements Protocol. Rossow (NDSS 2014) reports
// 556.9 for monlist-enabled servers.
func (ntpMonlist) AmplificationFactor() float64 { return 556.9 }

// memcachedStats is the memcached UDP "stats" amplification vector.
// Memcached has the largest known amplification factor (up to ~50 000×).
type memcachedStats struct{}

// Vector implements Protocol.
func (memcachedStats) Vector() Vector { return Memcached }

// memcachedFrame prepends the 8-byte memcached UDP frame header.
func memcachedFrame(reqID, seq, total uint16, body []byte) []byte {
	b := make([]byte, 0, 8+len(body))
	b = append(b, byte(reqID>>8), byte(reqID), byte(seq>>8), byte(seq), byte(total>>8), byte(total), 0, 0)
	return append(b, body...)
}

// BuildRequest returns a framed "stats\r\n" command.
func (memcachedStats) BuildRequest(r *netutil.Rand) []byte {
	return memcachedFrame(uint16(r.Uint64()), 0, 1, []byte("stats\r\n"))
}

// BuildResponses returns the multi-datagram stats dump. Each datagram
// carries up to 1400 bytes of STAT lines.
func (memcachedStats) BuildResponses(r *netutil.Rand, request []byte) [][]byte {
	reqID := uint16(0)
	if len(request) >= 2 {
		reqID = uint16(request[0])<<8 | uint16(request[1])
	}
	// Reflectors dump between ~50 KB and ~700 KB of cached stats/items.
	totalBytes := 50_000 + r.IntN(650_000)
	const chunk = 1400
	packets := (totalBytes + chunk - 1) / chunk
	out := make([][]byte, 0, packets)
	remaining := totalBytes
	for seq := 0; seq < packets; seq++ {
		n := chunk
		if n > remaining {
			n = remaining
		}
		body := make([]byte, 0, n)
		for len(body) < n {
			line := fmt.Sprintf("STAT item_%d %d\r\n", len(out)*100+len(body), r.Uint64N(1<<32))
			if len(body)+len(line) > n {
				line = line[:n-len(body)]
			}
			body = append(body, line...)
		}
		out = append(out, memcachedFrame(reqID, uint16(seq), uint16(packets), body))
		remaining -= n
	}
	return out
}

// AmplificationFactor implements Protocol.
func (memcachedStats) AmplificationFactor() float64 { return 10000 }

// ssdpSearch is the SSDP M-SEARCH amplification vector.
type ssdpSearch struct{}

// Vector implements Protocol.
func (ssdpSearch) Vector() Vector { return SSDP }

// BuildRequest returns an M-SEARCH ssdp:all discovery request.
func (ssdpSearch) BuildRequest(_ *netutil.Rand) []byte {
	return []byte("M-SEARCH * HTTP/1.1\r\nHOST: 239.255.255.250:1900\r\nMAN: \"ssdp:discover\"\r\nMX: 1\r\nST: ssdp:all\r\n\r\n")
}

// BuildResponses returns one HTTP-style 200 OK per advertised service.
func (ssdpSearch) BuildResponses(r *netutil.Rand, _ []byte) [][]byte {
	services := 4 + r.IntN(12)
	out := make([][]byte, services)
	for i := range out {
		out[i] = []byte(fmt.Sprintf(
			"HTTP/1.1 200 OK\r\nCACHE-CONTROL: max-age=1800\r\nEXT:\r\nLOCATION: http://192.168.%d.%d:49152/desc%d.xml\r\nSERVER: Linux/3.14 UPnP/1.0 booterscope/1.0\r\nST: urn:schemas-upnp-org:service:svc%d:1\r\nUSN: uuid:%016x::urn:schemas-upnp-org:service:svc%d:1\r\n\r\n",
			r.IntN(256), r.IntN(256), i, i, r.Uint64(), i))
	}
	return out
}

// AmplificationFactor implements Protocol.
func (ssdpSearch) AmplificationFactor() float64 { return 30.8 }

// chargenAny is the chargen (RFC 864) amplification vector: any datagram
// elicits a 0–512 byte character stream.
type chargenAny struct{}

// Vector implements Protocol.
func (chargenAny) Vector() Vector { return Chargen }

// BuildRequest returns a single arbitrary byte.
func (chargenAny) BuildRequest(_ *netutil.Rand) []byte { return []byte{0x01} }

// BuildResponses returns one datagram of printable ASCII.
func (chargenAny) BuildResponses(r *netutil.Rand, _ []byte) [][]byte {
	n := 200 + r.IntN(313) // 200..512
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(' ' + (i+r.IntN(4))%95)
	}
	return [][]byte{b}
}

// AmplificationFactor implements Protocol.
func (chargenAny) AmplificationFactor() float64 { return 358.8 }
