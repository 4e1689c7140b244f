package chaos

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"
)

// sink is a UDP listener collecting every datagram it receives.
type sink struct {
	conn net.PacketConn
	done chan struct{}

	mu   sync.Mutex
	pkts [][]byte
}

func newSink(t *testing.T) *sink {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &sink{conn: conn, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		buf := make([]byte, 65535)
		for {
			n, _, err := conn.ReadFrom(buf)
			if err != nil {
				return
			}
			pkt := make([]byte, n)
			copy(pkt, buf[:n])
			s.mu.Lock()
			s.pkts = append(s.pkts, pkt)
			s.mu.Unlock()
		}
	}()
	t.Cleanup(func() { conn.Close(); <-s.done })
	return s
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pkts)
}

// waitCount polls until the sink has n packets or no packet has
// arrived for stableFor, returning the packets.
func (s *sink) wait(t *testing.T, n int) [][]byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	stable := 0
	last := -1
	for time.Now().Before(deadline) {
		cur := s.count()
		if cur >= n {
			break
		}
		if cur == last {
			stable++
			if stable > 20 { // ~200 ms without growth: assume done
				break
			}
		} else {
			stable, last = 0, cur
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][]byte, len(s.pkts))
	copy(out, s.pkts)
	return out
}

// sendIndexed sends n datagrams through the proxy, payload = big-endian
// index, and returns the sender error if any.
func sendIndexed(t *testing.T, addr string, n int) {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var b [4]byte
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint32(b[:], uint32(i))
		if _, err := conn.Write(b[:]); err != nil {
			t.Fatal(err)
		}
		if i%64 == 0 {
			time.Sleep(time.Millisecond) // pace: no UDP flow control
		}
	}
}

func indexes(pkts [][]byte) []int {
	out := make([]int, 0, len(pkts))
	for _, p := range pkts {
		if len(p) == 4 {
			out = append(out, int(binary.BigEndian.Uint32(p)))
		}
	}
	return out
}

// waitReceived polls until the proxy has read n datagrams.
func waitReceived(t *testing.T, p *Proxy, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if p.Ledger().Received >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("proxy received %d datagrams, want %d", p.Ledger().Received, n)
}

func startProxy(t *testing.T, target string, plan Plan) *Proxy {
	t.Helper()
	p, err := NewProxy("127.0.0.1:0", target, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestProxyPassthrough(t *testing.T) {
	s := newSink(t)
	p := startProxy(t, s.conn.LocalAddr().String(), Plan{Seed: 1})
	sendIndexed(t, p.Addr().String(), 100)
	got := indexes(s.wait(t, 100))
	if len(got) != 100 {
		t.Fatalf("received %d datagrams, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("datagram %d has index %d: order not preserved", i, v)
		}
	}
	l := p.Ledger()
	if l.Received != 100 || l.Forwarded != 100 || l.TotalDropped() != 0 {
		t.Errorf("ledger = %+v", l)
	}
}

func TestProxyDropsAreSeededAndAccounted(t *testing.T) {
	const n = 400
	run := func(seed uint64) ([]int, Ledger) {
		s := newSink(t)
		p := startProxy(t, s.conn.LocalAddr().String(), Plan{Seed: seed, DropRate: 0.2})
		sendIndexed(t, p.Addr().String(), n)
		got := indexes(s.wait(t, n))
		return got, p.Ledger()
	}
	got1, l1 := run(7)
	got2, l2 := run(7)
	if len(got1) != len(got2) {
		t.Fatalf("same seed delivered %d vs %d datagrams", len(got1), len(got2))
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("same seed diverged at position %d: %d vs %d", i, got1[i], got2[i])
		}
	}
	if l1.Dropped != l2.Dropped {
		t.Fatalf("same seed dropped %d vs %d", l1.Dropped, l2.Dropped)
	}
	if l1.Dropped == 0 {
		t.Fatal("0 drops at 20% rate over 400 datagrams")
	}
	if int(l1.Forwarded)+int(l1.Dropped) != n {
		t.Errorf("forwarded %d + dropped %d != %d", l1.Forwarded, l1.Dropped, n)
	}
	if len(got1) != int(l1.Forwarded) {
		t.Errorf("sink saw %d, ledger forwarded %d", len(got1), l1.Forwarded)
	}
}

func TestProxyBlackout(t *testing.T) {
	s := newSink(t)
	p := startProxy(t, s.conn.LocalAddr().String(),
		Plan{Seed: 1, Blackouts: []blackout{{FromPacket: 10, ToPacket: 25}}})
	sendIndexed(t, p.Addr().String(), 50)
	got := indexes(s.wait(t, 35))
	if len(got) != 35 {
		t.Fatalf("received %d datagrams, want 35", len(got))
	}
	for _, v := range got {
		if v >= 10 && v < 25 {
			t.Fatalf("datagram %d leaked through the blackout", v)
		}
	}
	if l := p.Ledger(); l.BlackoutDropped != 15 {
		t.Errorf("BlackoutDropped = %d, want 15", l.BlackoutDropped)
	}
}

func TestProxyDuplicates(t *testing.T) {
	s := newSink(t)
	p := startProxy(t, s.conn.LocalAddr().String(), Plan{Seed: 3, DuplicateRate: 1})
	sendIndexed(t, p.Addr().String(), 20)
	got := indexes(s.wait(t, 40))
	if len(got) != 40 {
		t.Fatalf("received %d datagrams, want 40 (every one duplicated)", len(got))
	}
	for i := 0; i < 20; i++ {
		if got[2*i] != i || got[2*i+1] != i {
			t.Fatalf("positions %d,%d = %d,%d; want duplicate pair %d",
				2*i, 2*i+1, got[2*i], got[2*i+1], i)
		}
	}
	if l := p.Ledger(); l.Duplicated != 20 {
		t.Errorf("Duplicated = %d, want 20", l.Duplicated)
	}
}

func TestProxyReorderSwapsAdjacent(t *testing.T) {
	s := newSink(t)
	p := startProxy(t, s.conn.LocalAddr().String(), Plan{Seed: 3, ReorderRate: 1})
	sendIndexed(t, p.Addr().String(), 10)
	waitReceived(t, p, 10)
	p.Flush() // the last datagram is held with nothing behind it
	got := indexes(s.wait(t, 10))
	if len(got) != 10 {
		t.Fatalf("received %d datagrams, want 10", len(got))
	}
	// Rate 1 holds every other datagram: 1,0,3,2,5,4,...
	for i := 0; i < 10; i += 2 {
		if got[i] != i+1 || got[i+1] != i {
			t.Fatalf("pair at %d = %d,%d; want swapped %d,%d", i, got[i], got[i+1], i+1, i)
		}
	}
	if l := p.Ledger(); l.Reordered != 5 {
		t.Errorf("Reordered = %d, want 5", l.Reordered)
	}
}

func TestProxyCorruption(t *testing.T) {
	s := newSink(t)
	p := startProxy(t, s.conn.LocalAddr().String(), Plan{Seed: 9, CorruptRate: 1})
	sendIndexed(t, p.Addr().String(), 30)
	pkts := s.wait(t, 30)
	if len(pkts) != 30 {
		t.Fatalf("received %d datagrams, want 30", len(pkts))
	}
	changed := 0
	for i, pkt := range pkts {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(i))
		if string(pkt) != string(b[:]) {
			changed++
		}
	}
	if changed != 30 {
		t.Errorf("%d/30 datagrams corrupted at rate 1", changed)
	}
	if l := p.Ledger(); l.Corrupted != 30 {
		t.Errorf("Corrupted = %d, want 30", l.Corrupted)
	}
}

// ipfixMsg fabricates a minimal IPFIX header carrying seq and domain.
func ipfixMsg(seq, domain uint32) []byte {
	b := make([]byte, 16)
	binary.BigEndian.PutUint16(b, 10)
	binary.BigEndian.PutUint16(b[2:], 16)
	binary.BigEndian.PutUint32(b[8:], seq)
	binary.BigEndian.PutUint32(b[12:], domain)
	return b
}

func TestProxyIPFIXDropAttribution(t *testing.T) {
	const (
		n       = 200
		perMsg  = 7
		domain  = 42
		seed    = 11
		rate    = 0.25
		lastIdx = n - 1
	)
	s := newSink(t)
	p := startProxy(t, s.conn.LocalAddr().String(),
		Plan{Seed: seed, DropRate: rate, IPFIXAware: true})
	conn, err := net.Dial("udp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < n; i++ {
		if _, err := conn.Write(ipfixMsg(uint32(i*perMsg), domain)); err != nil {
			t.Fatal(err)
		}
		if i%64 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	pkts := s.wait(t, n)
	l := p.Ledger()

	// Which messages were dropped is visible at the sink; every dropped
	// message must be attributed at perMsg records each, except a
	// trailing one (no successor sizes it) and any before the first
	// delivery (the collector has no baseline yet — neither side counts
	// those).
	delivered := make(map[uint32]bool)
	for _, pkt := range pkts {
		if seq, dom, ok := ipfixHeader(pkt); ok && dom == domain {
			delivered[seq] = true
		}
	}
	firstDelivered := n
	for i := 0; i < n; i++ {
		if delivered[uint32(i*perMsg)] {
			firstDelivered = i
			break
		}
	}
	want := uint64(0)
	for i := firstDelivered + 1; i < n; i++ {
		if !delivered[uint32(i*perMsg)] && i != lastIdx {
			want += perMsg
		}
	}
	if l.Dropped == 0 {
		t.Fatal("no drops at 25% over 200 messages")
	}
	if got := l.DroppedRecords[domain]; got != want {
		t.Errorf("DroppedRecords = %d, want %d (dropped %d messages)", got, want, l.Dropped)
	}
}
