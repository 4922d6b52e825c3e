package cluster

import (
	"testing"
	"time"

	"tailbench/internal/queueing"
	"tailbench/internal/trace"
)

// TestDispatchSteadyStateAllocFree pins the engine's core perf contract:
// once the pool is provisioned and the sample log is preallocated from the
// ExpectedMeasured hint, routing an arrival through advance + balance +
// FIFO service + recording allocates NOTHING. Any regression here shows up
// as GC pressure multiplied by every event of every cell of every sweep.
func TestDispatchSteadyStateAllocFree(t *testing.T) {
	pool := make([]SimReplica, 4)
	for i := range pool {
		pool[i] = SimReplica{Service: queueing.ExponentialService{Mean: time.Millisecond}}
	}
	sc, err := NewSimCluster(SimClusterConfig{
		Policy:           PolicyLeastQueue,
		Threads:          2,
		Seed:             1,
		Replicas:         pool,
		ExpectedMeasured: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	interarrival := 250 * time.Microsecond
	now := time.Duration(0)
	// Warm the plateau: inflight heaps and depth trackers reach their
	// steady-state footprint within a few hundred dispatches.
	for i := 0; i < 1000; i++ {
		now += interarrival
		sc.Dispatch(now, true)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		now += interarrival
		sc.RunTicks(now)
		sc.Dispatch(now, true)
	})
	if allocs != 0 {
		t.Fatalf("steady-state RunTicks+Dispatch allocates %.2f allocs/event, want 0", allocs)
	}
}

// TestSimulateMarginalAllocs bounds the engine end to end. Growing a run by
// 10000 requests must not grow the allocation count by more than ~1 per
// 100 extra events, i.e. per-event cost is amortized into the fixed,
// spec-sized setup (sample log, sorted copies, CDFs, result assembly). And
// BenchmarkSimCluster's own runs, plain and traced, must stay within 2% of
// the allocations they had when the hot path was last tuned (111 and 257).
func TestSimulateMarginalAllocs(t *testing.T) {
	run := func(requests int, traced bool) float64 {
		return minAllocs(func() {
			var rec *trace.Recorder
			if traced {
				rec = trace.NewRecorder(8, 0)
			}
			if _, err := Simulate(benchSimConfig(requests, rec)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := run(2000, false), run(12000, false)
	marginal := (big - small) / 10000
	if marginal > 0.01 {
		t.Fatalf("marginal cost %.4f allocs/request over +10000 requests (%.0f -> %.0f), want <= 0.01",
			marginal, small, big)
	}
	if raceEnabled {
		return
	}
	for _, c := range []struct {
		traced bool
		bound  float64
	}{{false, 113}, {true, 262}} {
		if got := run(20000, c.traced); got > c.bound {
			t.Errorf("BenchmarkSimCluster (traced=%v) allocates %.0f, want <= %.0f", c.traced, got, c.bound)
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
