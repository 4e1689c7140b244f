//go:build !unix

package main

import "time"

// processCPU is unavailable off unix; bench.cpu_ns_per_rec reads 0.
func processCPU() time.Duration { return 0 }
