package main

// Example runs the takedown study and pins what it prints: the
// Section 5 trigger, victim and domain results and the conclusion.
func Example() {
	main()
	// Output:
	// to-reflector traffic at the tier-2 ISP after the seizure:
	//   memcached  red30   20.9%  significant: true
	//   NTP        red30   37.5%  significant: true
	//   DNS        red30   79.3%  significant: true
	//
	// systems under NTP attack (IXP): wt30 significant: false, wt40 significant: false
	//
	// booter domain population: 0 -> 39 (takedown month) -> 59 (end)
	// booter re-emerged: quantum-booter-reloaded.net (quantum-booter-0.com seized) active 2018-12-22
	//
	// conclusion:
	//   seizing booter front-ends reduced amplification trigger traffic,
	//   but victims saw no relief and the booter ecosystem kept growing —
	//   matching the paper's findings.
}
