//go:build race

package harness

// raceEnabled flags a race-detector build, where sync.Pool drops
// released items at random: tests that need a released sink back from
// its pool do not require it there.
const raceEnabled = true
