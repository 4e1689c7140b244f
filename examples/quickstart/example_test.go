package main

// Example runs the quickstart and pins what it prints: one booter A
// NTP attack's post-mortem, byte for byte.
func Example() {
	main()
	// Output:
	// booter A NTP attack against 203.0.113.2
	//   mean rate:           2618 Mbps
	//   peak rate:           7019 Mbps
	//   reflectors used:      400
	//   peer ASes:             56
	//   via transit:        83.1%
	//   IXP flow records (sampled): 677
}
