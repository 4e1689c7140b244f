//go:build !race

package flowstore

const raceEnabled = false
