//go:build race

package cluster

// The race detector's instrumentation allocates on its own, so the absolute
// allocation bounds in TestSimulateMarginalAllocs hold only without it.
func init() { raceEnabled = true }
