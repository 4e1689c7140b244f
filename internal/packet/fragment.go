package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"time"
)

// Fragmentation errors.
var (
	errFragmentMTU  = errors.New("packet: MTU too small to fragment")
	errDontFragment = errors.New("packet: DF set on packet larger than MTU")
	errFragOverlap  = errors.New("packet: overlapping fragments")
)

// Fragment splits a serialized IPv4 packet into fragments that fit the
// MTU, RFC 791-style: the IP header is replicated, payload is cut at
// 8-byte boundaries, and flags/offsets are set per fragment. Large
// amplification responses (CLDAP, DNS) exceed typical MTUs and arrive
// fragmented at victims, which is why flow byte counters — not packet
// sizes alone — drive the classification.
func Fragment(pkt []byte, mtu int) ([][]byte, error) {
	if len(pkt) <= mtu {
		return [][]byte{pkt}, nil
	}
	if len(pkt) < 20 || pkt[0]>>4 != 4 {
		return nil, errNotIPv4
	}
	ihl := int(pkt[0]&0x0f) * 4
	if ihl < 20 || ihl > len(pkt) {
		return nil, errBadIHL
	}
	if mtu < ihl+8 {
		return nil, errFragmentMTU
	}
	flags := pkt[6] >> 5
	if flags&iPv4DontFragment != 0 {
		return nil, errDontFragment
	}
	payload := pkt[ihl:]
	// Payload bytes per fragment, multiple of 8.
	chunk := (mtu - ihl) &^ 7

	var out [][]byte
	for off := 0; off < len(payload); off += chunk {
		end := off + chunk
		last := false
		if end >= len(payload) {
			end = len(payload)
			last = true
		}
		frag := make([]byte, ihl+end-off)
		copy(frag, pkt[:ihl])
		copy(frag[ihl:], payload[off:end])
		binary.BigEndian.PutUint16(frag[2:], uint16(len(frag)))
		fragFlags := flags &^ iPv4MoreFragments
		if !last {
			fragFlags |= iPv4MoreFragments
		}
		fragOff := uint16(off / 8)
		binary.BigEndian.PutUint16(frag[6:], uint16(fragFlags)<<13|fragOff&0x1fff)
		// Recompute the header checksum.
		binary.BigEndian.PutUint16(frag[10:], 0)
		binary.BigEndian.PutUint16(frag[10:], checksum(frag[:ihl]))
		out = append(out, frag)
	}
	return out, nil
}

// fragKey identifies one datagram's fragment stream.
type fragKey struct {
	src, dst netip.Addr
	id       uint16
	proto    uint8
}

// fragState accumulates one datagram's fragments.
type fragState struct {
	parts    []fragPart
	total    int // payload length once the last fragment arrives (-1 unknown)
	header   []byte
	lastSeen time.Time
}

type fragPart struct {
	off  int
	data []byte
}

// reassembler reconstructs fragmented IPv4 datagrams. It is the
// receiving-side counterpart of Fragment, with timeout-based eviction
// like a real stack.
type reassembler struct {
	// Timeout evicts incomplete datagrams (default 30 s, the classic
	// reassembly timer).
	Timeout time.Duration

	pending map[fragKey]*fragState
}

// NewReassembler returns an empty reassembler.
//
//bsvet:allow deadcode oracle: TestFragmentRoundTrip and TestCLDAPCaptureFragmentsAndReassembles reassemble what Fragment splits
func NewReassembler() *reassembler {
	return &reassembler{Timeout: 30 * time.Second, pending: make(map[fragKey]*fragState)}
}

// Pending reports how many datagrams await completion.
//
//bsvet:allow deadcode oracle: TestFragmentRoundTrip checks reassembly completes
func (ra *reassembler) Pending() int { return len(ra.pending) }

// Add consumes one packet at time now. Unfragmented packets return
// immediately; fragments return the reassembled datagram once complete,
// or nil while parts are missing.
func (ra *reassembler) Add(pkt []byte, now time.Time) ([]byte, error) {
	if len(pkt) < 20 || pkt[0]>>4 != 4 {
		return nil, errNotIPv4
	}
	ihl := int(pkt[0]&0x0f) * 4
	if ihl < 20 || ihl > len(pkt) {
		return nil, errBadIHL
	}
	flagsOff := binary.BigEndian.Uint16(pkt[6:])
	more := flagsOff>>13&uint16(iPv4MoreFragments) != 0
	off := int(flagsOff&0x1fff) * 8
	if !more && off == 0 {
		return pkt, nil // not fragmented
	}

	ra.evict(now)
	key := fragKey{
		src:   netip.AddrFrom4([4]byte(pkt[12:16])),
		dst:   netip.AddrFrom4([4]byte(pkt[16:20])),
		id:    binary.BigEndian.Uint16(pkt[4:]),
		proto: pkt[9],
	}
	st, ok := ra.pending[key]
	if !ok {
		st = &fragState{total: -1}
		ra.pending[key] = st
	}
	st.lastSeen = now
	payload := pkt[ihl:]
	if off == 0 {
		st.header = append([]byte(nil), pkt[:ihl]...)
	}
	st.parts = append(st.parts, fragPart{off: off, data: append([]byte(nil), payload...)})
	if !more {
		st.total = off + len(payload)
	}

	done, err := st.assembled()
	if err != nil {
		delete(ra.pending, key)
		return nil, err
	}
	if done == nil {
		return nil, nil
	}
	delete(ra.pending, key)
	// Rebuild: first fragment's header with cleared frag fields and
	// corrected total length.
	out := make([]byte, len(st.header)+len(done))
	copy(out, st.header)
	copy(out[len(st.header):], done)
	binary.BigEndian.PutUint16(out[2:], uint16(len(out)))
	binary.BigEndian.PutUint16(out[6:], 0)
	binary.BigEndian.PutUint16(out[10:], 0)
	binary.BigEndian.PutUint16(out[10:], checksum(out[:len(st.header)]))
	return out, nil
}

// assembled returns the contiguous payload if complete (nil otherwise),
// or an error on overlap.
func (st *fragState) assembled() ([]byte, error) {
	if st.total < 0 || st.header == nil {
		return nil, nil
	}
	parts := append([]fragPart(nil), st.parts...)
	sort.Slice(parts, func(i, j int) bool { return parts[i].off < parts[j].off })
	buf := make([]byte, st.total)
	covered := 0
	for _, p := range parts {
		if p.off > covered {
			return nil, nil // hole remains
		}
		end := p.off + len(p.data)
		if p.off < covered && end > covered {
			// Real stacks tolerate exact duplicates; anything else is
			// hostile (teardrop-style).
			return nil, fmt.Errorf("%w: fragment at %d overlaps %d", errFragOverlap, p.off, covered)
		}
		if end > st.total {
			return nil, fmt.Errorf("%w: fragment beyond total length", errFragOverlap)
		}
		copy(buf[p.off:], p.data)
		if end > covered {
			covered = end
		}
	}
	if covered < st.total {
		return nil, nil
	}
	return buf, nil
}

// evict drops incomplete datagrams past the timeout.
func (ra *reassembler) evict(now time.Time) {
	timeout := ra.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	for key, st := range ra.pending {
		if now.Sub(st.lastSeen) > timeout {
			delete(ra.pending, key)
		}
	}
}
