//go:build race

package serve_test

// raceEnabled reports whether the race detector is active, under which
// allocation counts do not hold.
const raceEnabled = true
