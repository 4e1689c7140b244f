//go:build race

package takedown

// raceEnabled: under -race, sync.Pool.Put drops a quarter of what it
// is given, so a path that takes pooled slabs allocates at random.
const raceEnabled = true
