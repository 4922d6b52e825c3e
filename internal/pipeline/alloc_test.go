package pipeline

import (
	"testing"

	"tailbench/internal/trace"
)

// TestSimulateMarginalAllocs bounds the multi-tier engine end to end.
// Growing a run by 4000 roots (each a front event pair plus a 4-way hedged
// shard fan-out) must not grow the allocation count by more than ~1 per
// 100 extra roots. The per-root machinery — event queue slots, fan-in
// nodes, tierMax scratch, trace trees — is either preallocated from the
// spec or recycled through free lists, so allocations stay a function of
// the topology, not the request count. And BenchmarkPipelineSim's own
// runs, plain and traced, must stay within 2% of the allocations they had
// when the hot path was last tuned (286 and 860).
func TestSimulateMarginalAllocs(t *testing.T) {
	run := func(requests int, traced bool) float64 {
		return minAllocs(func() {
			var rec *trace.Recorder
			if traced {
				rec = trace.NewRecorder(8, 0)
			}
			if _, err := Simulate(benchPipelineConfig(requests, rec)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := run(1000, false), run(5000, false)
	marginal := (big - small) / 4000
	if marginal > 0.01 {
		t.Fatalf("marginal cost %.4f allocs/root over +4000 roots (%.0f -> %.0f), want <= 0.01",
			marginal, small, big)
	}
	if raceEnabled {
		return
	}
	for _, c := range []struct {
		traced bool
		bound  float64
	}{{false, 291}, {true, 877}} {
		if got := run(5000, c.traced); got > c.bound {
			t.Errorf("BenchmarkPipelineSim (traced=%v) allocates %.0f, want <= %.0f", c.traced, got, c.bound)
		}
	}
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// minAllocs is the fewest allocations any of three testing.AllocsPerRun
// passes measured for f. AllocsPerRun counts the whole process, so one
// pass can pick up a runtime or test-framework allocation; the minimum
// cannot.
func minAllocs(f func()) float64 {
	least := testing.AllocsPerRun(1, f)
	for range 2 {
		least = min(least, testing.AllocsPerRun(1, f))
	}
	return least
}
