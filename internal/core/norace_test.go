//go:build !race

package core

// raceEnabled reports whether the tests run under the race detector,
// whose random sync.Pool drops make searches build states afresh.
const raceEnabled = false
