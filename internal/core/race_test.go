//go:build race

package core

// Under the race detector sync.Pool drops a random quarter of its Puts, so
// TestSleepReusesTimers would count the detector's churn, not the pool's.
func init() { raceEnabled = true }
