//go:build !race

package takedown

const raceEnabled = false
