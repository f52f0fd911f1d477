//go:build race

package cache

// raceEnabled flags a race-detector build, where sync.Pool drops
// released items at random: tests that need a released cache back
// from the pool do not require it there.
const raceEnabled = true
