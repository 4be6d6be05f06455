//go:build race

package core_test

// raceEnabled reports whether the race detector is active. sync.Pool
// deliberately drops items under -race, so allocation pins cannot hold there.
const raceEnabled = true
