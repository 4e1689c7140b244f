package bgp

import (
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func TestFlowSpecMatches(t *testing.T) {
	rule := FlowSpecRule{
		Dst:          netip.MustParsePrefix("203.0.113.7/32"),
		Protocol:     17,
		SrcPort:      123,
		MinPacketLen: 200,
	}
	victim := netip.MustParseAddr("203.0.113.7")
	other := netip.MustParseAddr("203.0.113.8")

	if !rule.Matches(victim, 17, 123, 486) {
		t.Error("attack packet should match")
	}
	if rule.Matches(other, 17, 123, 486) {
		t.Error("different destination matched")
	}
	if rule.Matches(victim, 6, 123, 486) {
		t.Error("TCP matched a UDP rule")
	}
	if rule.Matches(victim, 17, 53, 486) {
		t.Error("DNS source port matched an NTP rule")
	}
	if rule.Matches(victim, 17, 123, 76) {
		t.Error("small benign NTP packet matched the >=200 rule")
	}
	// Wildcards: a dst-only rule matches everything toward the prefix.
	broad := FlowSpecRule{Dst: netip.MustParsePrefix("203.0.113.0/24")}
	if !broad.Matches(victim, 6, 443, 60) {
		t.Error("wildcard rule should match")
	}
}

func TestFlowSpecEncodeDecodeRoundTrip(t *testing.T) {
	rules := []FlowSpecRule{
		{Dst: netip.MustParsePrefix("203.0.113.7/32"), Protocol: 17, SrcPort: 123, MinPacketLen: 200},
		{Dst: netip.MustParsePrefix("203.0.113.0/24")},
		{Dst: netip.MustParsePrefix("10.0.0.0/8"), Protocol: 17},
		{Dst: netip.MustParsePrefix("203.0.113.7/32"), SrcPort: 11211},
		{Dst: netip.MustParsePrefix("203.0.113.7/32"), SrcPort: 19}, // 1-byte port
	}
	for i, rule := range rules {
		wire, err := rule.Encode()
		if err != nil {
			t.Fatalf("rule %d: %v", i, err)
		}
		got, err := DecodeFlowSpec(wire)
		if err != nil {
			t.Fatalf("rule %d decode: %v", i, err)
		}
		if got != rule {
			t.Errorf("rule %d round trip: %+v != %+v", i, got, rule)
		}
	}
}

func TestFlowSpecEncodeValidation(t *testing.T) {
	if _, err := (FlowSpecRule{}).Encode(); err != errFlowSpecNoDst {
		t.Errorf("err = %v", err)
	}
	if _, err := (FlowSpecRule{Dst: netip.MustParsePrefix("2001:db8::/32")}).Encode(); err == nil {
		t.Error("IPv6 prefix accepted")
	}
}

func TestFlowSpecDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{5, 1, 2},     // length beyond buffer
		{3, 99, 0, 0}, // unknown component
		{2, 3, 0x81},  // truncated protocol
		{1, 1},        // truncated prefix
		{2, 1, 40},    // prefix length > 32
		{0},           // empty body: no dst
	}
	for i, c := range cases {
		if _, err := DecodeFlowSpec(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestFlowSpecDecodeFuzzSafety(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = DecodeFlowSpec(b) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFlowSpecString(t *testing.T) {
	rule := FlowSpecRule{
		Dst:          netip.MustParsePrefix("203.0.113.7/32"),
		Protocol:     17,
		SrcPort:      123,
		MinPacketLen: 200,
	}
	s := rule.String()
	for _, want := range []string{"203.0.113.7/32", "proto 17", "src-port 123", "pkt-len >= 200", "discard"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
