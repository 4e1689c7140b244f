package amplify

import (
	"strings"
	"testing"

	"booterscope/internal/netutil"
)

func TestVectorStringsAndPorts(t *testing.T) {
	cases := []struct {
		v    Vector
		name string
		port uint16
	}{
		{NTP, "NTP", 123},
		{DNS, "DNS", 53},
		{CLDAP, "CLDAP", 389},
		{Memcached, "memcached", 11211},
		{SSDP, "SSDP", 1900},
		{Chargen, "chargen", 19},
	}
	for _, c := range cases {
		if c.v.String() != c.name {
			t.Errorf("%v name = %q", c.v, c.v.String())
		}
		if c.v.Port() != c.port {
			t.Errorf("%v port = %d, want %d", c.v, c.v.Port(), c.port)
		}
	}
	if Vector(200).Port() != 0 {
		t.Error("unknown vector should have port 0")
	}
	if !strings.HasPrefix(Vector(200).String(), "Vector(") {
		t.Error("unknown vector String")
	}
}

func TestForVector(t *testing.T) {
	for _, v := range []Vector{NTP, DNS, CLDAP, Memcached, SSDP, Chargen} {
		p, err := ForVector(v)
		if err != nil {
			t.Fatalf("ForVector(%v): %v", v, err)
		}
		if p.Vector() != v {
			t.Errorf("ForVector(%v).Vector() = %v", v, p.Vector())
		}
	}
	if _, err := ForVector(Vector(99)); err == nil {
		t.Error("expected error for unknown vector")
	}
}

func TestAllProtocolsAmplify(t *testing.T) {
	r := netutil.NewRand(1)
	for _, p := range allProtocols() {
		req := p.BuildRequest(r)
		if len(req) == 0 {
			t.Errorf("%v: empty request", p.Vector())
		}
		resps := p.BuildResponses(r, req)
		if len(resps) == 0 {
			t.Errorf("%v: no responses", p.Vector())
		}
		total := 0
		for _, resp := range resps {
			total += len(resp)
		}
		if total <= len(req) {
			t.Errorf("%v: response bytes %d do not amplify request bytes %d", p.Vector(), total, len(req))
		}
		if p.AmplificationFactor() <= 1 {
			t.Errorf("%v: amplification factor %.1f", p.Vector(), p.AmplificationFactor())
		}
	}
}

func TestNTPMonlistRequestFormat(t *testing.T) {
	req := ntpMonlist{}.BuildRequest(netutil.NewRand(2))
	if len(req) != 8 {
		t.Fatalf("monlist request = %d bytes, want 8", len(req))
	}
	if req[0] != 0x17 {
		t.Errorf("first byte = %#x, want 0x17 (v2 mode 7)", req[0])
	}
	if req[2] != 3 || req[3] != 42 {
		t.Errorf("impl/reqcode = %d/%d, want 3/42", req[2], req[3])
	}
}

func TestNTPMonlistResponseSizes(t *testing.T) {
	r := netutil.NewRand(3)
	p := ntpMonlist{}
	req := p.BuildRequest(r)
	seen := map[int]bool{}
	for trial := 0; trial < 20; trial++ {
		for _, resp := range p.BuildResponses(r, req) {
			ipLen := len(resp) + 28
			if ipLen != 486 && ipLen != 490 {
				t.Fatalf("monlist response IP length %d, want 486 or 490", ipLen)
			}
			seen[ipLen] = true
		}
	}
	if !seen[486] || !seen[490] {
		t.Errorf("expected both 486 and 490 byte responses, saw %v", seen)
	}
}

func TestNTPMonlistResponseCount(t *testing.T) {
	r := netutil.NewRand(4)
	p := ntpMonlist{}
	for trial := 0; trial < 50; trial++ {
		n := len(p.BuildResponses(r, nil))
		if n < 10 || n > 100 {
			t.Fatalf("monlist burst of %d packets, want 10..100", n)
		}
	}
}

func TestNTPMonlistMoreBit(t *testing.T) {
	r := netutil.NewRand(5)
	resps := ntpMonlist{}.BuildResponses(r, nil)
	for i, resp := range resps {
		more := resp[0]&0x10 != 0
		if i < len(resps)-1 && !more {
			t.Errorf("packet %d/%d missing more bit", i, len(resps))
		}
		if i == len(resps)-1 && more {
			t.Error("final packet has more bit set")
		}
		if resp[0]&0x80 == 0 {
			t.Errorf("packet %d missing response bit", i)
		}
	}
}

func TestDNSEncodeDecodeRoundTrip(t *testing.T) {
	m := &dnsMessage{
		ID:       0xbeef,
		Flags:    dnsFlagQR | dnsFlagRA,
		HasQd:    true,
		Question: dnsQuestion{Name: "example.com", Type: dnsTypeANY, Class: dnsClassIN},
		Answers: []dnsRecord{
			{Name: "example.com", Type: dnsTypeA, Class: dnsClassIN, TTL: 300, Data: []byte{192, 0, 2, 1}},
			{Name: "example.com", Type: dnsTypeTXT, Class: dnsClassIN, TTL: 60, Data: []byte("x")},
		},
		EDNSSize: 4096,
	}
	got, err := decodeDNS(m.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 0xbeef || got.Question.Name != "example.com" {
		t.Errorf("decoded id=%#x name=%q", got.ID, got.Question.Name)
	}
	if len(got.Answers) != 2 {
		t.Fatalf("answers = %d", len(got.Answers))
	}
	if got.Answers[0].Type != dnsTypeA || got.Answers[0].TTL != 300 {
		t.Errorf("answer 0 = %+v", got.Answers[0])
	}
	if got.EDNSSize != 4096 {
		t.Errorf("EDNS size = %d", got.EDNSSize)
	}
}

func TestDNSNameCompressionPointer(t *testing.T) {
	// A name that points back at offset 12 (the question name).
	m := &dnsMessage{
		ID: 1, HasQd: true,
		Question: dnsQuestion{Name: "a.bc", Type: dnsTypeA, Class: dnsClassIN},
	}
	raw := m.encode()
	name, _, err := parseDNSName(raw, 12)
	if err != nil || name != "a.bc" {
		t.Fatalf("parse question name: %q, %v", name, err)
	}
	// Append a compression pointer to offset 12 and parse it.
	ptr := append(append([]byte{}, raw...), 0xc0, 12)
	got, next, err := parseDNSName(ptr, len(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got != "a.bc" {
		t.Errorf("pointer name = %q", got)
	}
	if next != len(raw)+2 {
		t.Errorf("next = %d, want %d", next, len(raw)+2)
	}
}

func TestDNSDecodeTruncated(t *testing.T) {
	if _, err := decodeDNS([]byte{1, 2, 3}); err == nil {
		t.Error("expected error on short message")
	}
	m := &dnsMessage{ID: 5, HasQd: true, Question: dnsQuestion{Name: "x.y", Type: 1, Class: 1}}
	raw := m.encode()
	if _, err := decodeDNS(raw[:len(raw)-3]); err == nil {
		t.Error("expected error on truncated question")
	}
}

func TestDNSAnyResponseEchoesRequestID(t *testing.T) {
	r := netutil.NewRand(6)
	d := dnsAny{Domain: "victim-zone.net"}
	req := d.BuildRequest(r)
	reqMsg, err := decodeDNS(req)
	if err != nil {
		t.Fatal(err)
	}
	resps := d.BuildResponses(r, req)
	respMsg, err := decodeDNS(resps[0])
	if err != nil {
		t.Fatal(err)
	}
	if respMsg.ID != reqMsg.ID {
		t.Errorf("response ID %#x != request ID %#x", respMsg.ID, reqMsg.ID)
	}
	if respMsg.Flags&dnsFlagQR == 0 {
		t.Error("response missing QR flag")
	}
	if respMsg.Question.Name != "victim-zone.net" {
		t.Errorf("question name = %q", respMsg.Question.Name)
	}
	if len(respMsg.Answers) < 10 {
		t.Errorf("only %d answers", len(respMsg.Answers))
	}
}

func TestCLDAPRequestRoundTrip(t *testing.T) {
	r := netutil.NewRand(7)
	req := cldapSearch{}.BuildRequest(r)
	if len(req) > 80 {
		t.Errorf("CLDAP request = %d bytes, should be small", len(req))
	}
	info, err := decodeCLDAPRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if info.BaseDN != "" {
		t.Errorf("baseDN = %q, want rootDSE (empty)", info.BaseDN)
	}
	if info.Attribute != "objectClass" {
		t.Errorf("filter attribute = %q", info.Attribute)
	}
	if info.MessageID <= 0 {
		t.Errorf("message id = %d", info.MessageID)
	}
}

func TestCLDAPResponsesParseable(t *testing.T) {
	r := netutil.NewRand(8)
	p := cldapSearch{}
	req := p.BuildRequest(r)
	resps := p.BuildResponses(r, req)
	if len(resps) != 2 {
		t.Fatalf("CLDAP responses = %d, want entry + done", len(resps))
	}
	// Both must be well-formed BER SEQUENCEs covering their whole buffer.
	for i, resp := range resps {
		tag, _, ve, _, err := parseTLV(resp, 0)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if tag != berSequence || ve != len(resp) {
			t.Errorf("response %d: tag %#x end %d len %d", i, tag, ve, len(resp))
		}
	}
	if len(resps[0]) < 1000 {
		t.Errorf("searchResEntry only %d bytes; expected kilobytes", len(resps[0]))
	}
}

func TestBERLengthForms(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 255, 256, 4000} {
		b := berLen(nil, n)
		_, vs, ve, _, err := parseTLV(append([]byte{berOctetString}, append(b, make([]byte, n)...)...), 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if ve-vs != n {
			t.Errorf("n=%d decoded length %d", n, ve-vs)
		}
	}
}

func TestMemcachedFrameHeader(t *testing.T) {
	r := netutil.NewRand(9)
	p := memcachedStats{}
	req := p.BuildRequest(r)
	if string(req[8:]) != "stats\r\n" {
		t.Errorf("request body = %q", req[8:])
	}
	resps := p.BuildResponses(r, req)
	reqID := uint16(req[0])<<8 | uint16(req[1])
	for i, resp := range resps {
		if len(resp) < 8 {
			t.Fatalf("response %d too short", i)
		}
		gotID := uint16(resp[0])<<8 | uint16(resp[1])
		if gotID != reqID {
			t.Fatalf("response %d request id %#x != %#x", i, gotID, reqID)
		}
		seq := uint16(resp[2])<<8 | uint16(resp[3])
		if int(seq) != i {
			t.Fatalf("response %d seq = %d", i, seq)
		}
		total := uint16(resp[4])<<8 | uint16(resp[5])
		if int(total) != len(resps) {
			t.Fatalf("response %d total = %d, want %d", i, total, len(resps))
		}
	}
}

func TestMemcachedMassiveAmplification(t *testing.T) {
	r := netutil.NewRand(10)
	p := memcachedStats{}
	req := p.BuildRequest(r)
	total := 0
	for _, resp := range p.BuildResponses(r, req) {
		total += len(resp)
	}
	if factor := float64(total) / float64(len(req)); factor < 1000 {
		t.Errorf("memcached amplification factor %.0f, want >1000", factor)
	}
}

func TestSSDPResponsesAreHTTP(t *testing.T) {
	r := netutil.NewRand(11)
	p := ssdpSearch{}
	req := p.BuildRequest(r)
	if !strings.HasPrefix(string(req), "M-SEARCH * HTTP/1.1") {
		t.Errorf("request = %q", req[:20])
	}
	for _, resp := range p.BuildResponses(r, req) {
		if !strings.HasPrefix(string(resp), "HTTP/1.1 200 OK") {
			t.Errorf("response does not start with 200 OK: %q", resp[:20])
		}
	}
}

func TestChargenResponseBounds(t *testing.T) {
	r := netutil.NewRand(12)
	p := chargenAny{}
	for i := 0; i < 100; i++ {
		resps := p.BuildResponses(r, p.BuildRequest(r))
		if len(resps) != 1 {
			t.Fatalf("chargen responses = %d", len(resps))
		}
		if n := len(resps[0]); n < 200 || n > 512 {
			t.Fatalf("chargen response = %d bytes", n)
		}
		for _, c := range resps[0] {
			if c < ' ' || c > '~' {
				t.Fatalf("non-printable byte %#x", c)
			}
		}
	}
}

func TestDeterministicResponses(t *testing.T) {
	for _, p := range allProtocols() {
		a, b := netutil.NewRand(77), netutil.NewRand(77)
		ra := p.BuildResponses(a, p.BuildRequest(a))
		rb := p.BuildResponses(b, p.BuildRequest(b))
		if len(ra) != len(rb) {
			t.Fatalf("%v: lengths differ %d vs %d", p.Vector(), len(ra), len(rb))
		}
		for i := range ra {
			if string(ra[i]) != string(rb[i]) {
				t.Fatalf("%v: response %d differs", p.Vector(), i)
			}
		}
	}
}

func BenchmarkNTPMonlistResponses(b *testing.B) {
	r := netutil.NewRand(1)
	p := ntpMonlist{}
	req := p.BuildRequest(r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.BuildResponses(r, req)
	}
}

func BenchmarkDNSEncode(b *testing.B) {
	r := netutil.NewRand(1)
	d := dnsAny{Domain: "example.com"}
	req := d.BuildRequest(r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.BuildResponses(r, req)
	}
}

// allProtocols returns every implemented protocol.
func allProtocols() []Protocol {
	return []Protocol{
		ntpMonlist{},
		dnsAny{Domain: "example.com"},
		cldapSearch{},
		memcachedStats{},
		ssdpSearch{},
		chargenAny{},
	}
}
