package main

// Example runs the mitigation scenario and pins what it prints: the
// RTBH valve's cut-off and the FlowSpec alternative's peak rates.
func Example() {
	main()
	// Output:
	// VIP NTP attack against 203.0.113.2 with an RTBH valve at 8 Gbps
	// blackhole (65535:666) announced at second 2
	// peak before mitigation: 9.6 Gbps
	// seconds dropped at the neighbors' edges: 117 of 120
	// blackhole withdrawn; normal routing restored
	//
	// -- FlowSpec instead of RTBH --
	// announced: match dst 203.0.113.3/32 proto 17 src-port 123 pkt-len >= 200 then discard
	// attack traffic reaching the victim: 0.00 Gbps (peak)
	// attack traffic discarded at the edges: 19.9 Gbps (peak)
	// the victim remains reachable for everything else — unlike RTBH,
	// which completes the attacker's job by dropping all traffic.
}
