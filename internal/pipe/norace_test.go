//go:build !race

package pipe

const raceEnabled = false
