package packet

import (
	"bytes"
	"testing"
	"time"
)

var fragT0 = time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)

// bigUDP builds a CLDAP-response-sized packet that needs fragmenting.
func bigUDP(t testing.TB, payloadLen int) []byte {
	t.Helper()
	payload := make([]byte, payloadLen)
	for i := range payload {
		payload[i] = byte(i)
	}
	return Build(
		&IPv4{TTL: 60, ID: 0x1234, Protocol: IPProtoUDP, Src: mustAddr("192.0.2.1"), Dst: mustAddr("203.0.113.9")},
		&UDP{SrcPort: 389, DstPort: 40000},
		Payload(payload),
	)
}

func TestFragmentRoundTrip(t *testing.T) {
	pkt := bigUDP(t, 2900)
	frags, err := Fragment(pkt, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 2 {
		t.Fatalf("fragments = %d, want 2", len(frags))
	}
	for i, f := range frags {
		if len(f) > 1500 {
			t.Fatalf("fragment %d = %d bytes > MTU", i, len(f))
		}
		// Every fragment has a valid header checksum.
		if _, err := DecodeIPv4(f); err != nil && err != errTruncated {
			// Non-first fragments fail transport parsing but must not
			// fail header validation.
			if err == errBadChecksum || err == errNotIPv4 || err == errBadIHL {
				t.Fatalf("fragment %d header invalid: %v", i, err)
			}
		}
	}

	ra := NewReassembler()
	var result []byte
	for i, f := range frags {
		out, err := ra.Add(f, fragT0.Add(time.Duration(i)*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		if i < len(frags)-1 && out != nil {
			t.Fatal("reassembled before all fragments arrived")
		}
		if i == len(frags)-1 {
			result = out
		}
	}
	if result == nil {
		t.Fatal("reassembly incomplete")
	}
	if !bytes.Equal(result, pkt) {
		t.Errorf("reassembled packet differs: %d vs %d bytes", len(result), len(pkt))
	}
	d, err := DecodeIPv4(result)
	if err != nil {
		t.Fatalf("reassembled packet undecodable: %v", err)
	}
	if d.UDP == nil || d.UDP.SrcPort != 389 {
		t.Error("transport layer lost in reassembly")
	}
	if ra.Pending() != 0 {
		t.Errorf("pending = %d after completion", ra.Pending())
	}
}

func TestFragmentOutOfOrder(t *testing.T) {
	pkt := bigUDP(t, 4000)
	frags, err := Fragment(pkt, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 3 {
		t.Fatalf("fragments = %d", len(frags))
	}
	ra := NewReassembler()
	// Deliver in reverse order.
	var result []byte
	for i := len(frags) - 1; i >= 0; i-- {
		out, err := ra.Add(frags[i], fragT0)
		if err != nil {
			t.Fatal(err)
		}
		if out != nil {
			result = out
		}
	}
	if !bytes.Equal(result, pkt) {
		t.Error("out-of-order reassembly failed")
	}
}

func TestFragmentSmallPacketPassthrough(t *testing.T) {
	pkt := bigUDP(t, 100)
	frags, err := Fragment(pkt, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 1 || !bytes.Equal(frags[0], pkt) {
		t.Error("small packet should pass through unfragmented")
	}
	ra := NewReassembler()
	out, err := ra.Add(pkt, fragT0)
	if err != nil || !bytes.Equal(out, pkt) {
		t.Errorf("unfragmented Add: %v", err)
	}
}

func TestFragmentHonorsDF(t *testing.T) {
	payload := make([]byte, 2000)
	pkt := Build(
		&IPv4{TTL: 60, Protocol: IPProtoUDP, Flags: iPv4DontFragment, Src: mustAddr("192.0.2.1"), Dst: mustAddr("203.0.113.9")},
		&UDP{SrcPort: 53, DstPort: 40000},
		Payload(payload),
	)
	if _, err := Fragment(pkt, 1500); err != errDontFragment {
		t.Errorf("err = %v, want ErrDontFragment", err)
	}
}

func TestFragmentTinyMTU(t *testing.T) {
	pkt := bigUDP(t, 2000)
	if _, err := Fragment(pkt, 24); err != errFragmentMTU {
		t.Errorf("err = %v", err)
	}
}

func TestFragmentOffsetsAligned(t *testing.T) {
	pkt := bigUDP(t, 5000)
	frags, err := Fragment(pkt, 577) // awkward MTU
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frags {
		off := int(uint16(f[6])<<8|uint16(f[7])) & 0x1fff
		if i > 0 && off == 0 {
			t.Fatalf("fragment %d has zero offset", i)
		}
		_ = off // offsets implicitly 8-byte units
		payloadLen := len(f) - 20
		if i < len(frags)-1 && payloadLen%8 != 0 {
			t.Fatalf("fragment %d payload %d not 8-byte aligned", i, payloadLen)
		}
	}
	// And they reassemble.
	ra := NewReassembler()
	var result []byte
	for _, f := range frags {
		out, err := ra.Add(f, fragT0)
		if err != nil {
			t.Fatal(err)
		}
		if out != nil {
			result = out
		}
	}
	if !bytes.Equal(result, pkt) {
		t.Error("awkward-MTU reassembly failed")
	}
}

func TestReassemblerTimeout(t *testing.T) {
	pkt := bigUDP(t, 3000)
	frags, _ := Fragment(pkt, 1500)
	ra := NewReassembler()
	ra.Timeout = time.Second
	if _, err := ra.Add(frags[0], fragT0); err != nil {
		t.Fatal(err)
	}
	if ra.Pending() != 1 {
		t.Fatal("fragment not pending")
	}
	// A much later unrelated fragment evicts the stale state.
	other := bigUDP(t, 3000)
	other[4], other[5] = 0xab, 0xcd // different IP ID
	otherFrags, _ := Fragment(other, 1500)
	if _, err := ra.Add(otherFrags[0], fragT0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if ra.Pending() != 1 {
		t.Errorf("pending = %d; stale datagram should be evicted", ra.Pending())
	}
	// The late second half of the first datagram cannot complete it.
	out, err := ra.Add(frags[1], fragT0.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		t.Error("evicted datagram reassembled")
	}
}

func TestReassemblerRejectsOverlap(t *testing.T) {
	pkt := bigUDP(t, 2900) // two fragments
	frags, _ := Fragment(pkt, 1500)
	if len(frags) != 2 {
		t.Fatalf("fragments = %d", len(frags))
	}
	ra := NewReassembler()
	if _, err := ra.Add(frags[0], fragT0); err != nil {
		t.Fatal(err)
	}
	// Craft the final fragment overlapping into the first's range
	// (teardrop-style): shrink its offset by 8 bytes. The overlap is
	// detected when the datagram would complete.
	evil := append([]byte(nil), frags[1]...)
	flagsOff := uint16(evil[6])<<8 | uint16(evil[7])
	off := flagsOff & 0x1fff
	flagsOff = flagsOff&^0x1fff | (off - 1)
	evil[6], evil[7] = byte(flagsOff>>8), byte(flagsOff)
	evil[10], evil[11] = 0, 0
	cs := checksum(evil[:20])
	evil[10], evil[11] = byte(cs>>8), byte(cs)
	if _, err := ra.Add(evil, fragT0); err == nil {
		t.Error("overlapping fragment accepted")
	}
	if ra.Pending() != 0 {
		t.Errorf("pending = %d; hostile datagram should be dropped", ra.Pending())
	}
}

func TestFragmentedAmplificationKeepsByteTotals(t *testing.T) {
	// The analytical property the study relies on: fragmentation changes
	// packet counts and sizes but conserves byte volume (minus replicated
	// headers, which add).
	pkt := bigUDP(t, 2900)
	frags, _ := Fragment(pkt, 1500)
	var fragBytes int
	for _, f := range frags {
		fragBytes += len(f)
	}
	if fragBytes < len(pkt) {
		t.Errorf("fragmented bytes %d < original %d", fragBytes, len(pkt))
	}
	if fragBytes > len(pkt)+20*(len(frags)-1) {
		t.Errorf("fragmented bytes %d exceed original + replicated headers", fragBytes)
	}
}

func BenchmarkFragmentReassemble(b *testing.B) {
	pkt := bigUDP(b, 2900)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frags, err := Fragment(pkt, 1500)
		if err != nil {
			b.Fatal(err)
		}
		ra := NewReassembler()
		for _, f := range frags {
			if _, err := ra.Add(f, fragT0); err != nil {
				b.Fatal(err)
			}
		}
	}
}
