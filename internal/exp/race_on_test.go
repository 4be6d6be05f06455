//go:build race

package exp

// raceEnabled reports whether the race detector is active. It makes the
// simulated sweeps about 20x slower, so the report golden skips under it.
const raceEnabled = true
