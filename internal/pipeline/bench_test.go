package pipeline

import (
	"testing"
	"time"

	"tailbench/internal/cluster"
	"tailbench/internal/queueing"
	"tailbench/internal/trace"
)

// benchPipelineConfig is the fixed-seed workload the pipeline event-queue
// microbenchmark runs: a front-end fanning out 4-way into a hedged shard
// tier, so the global event heap carries root arrivals, fan-out spawns,
// hedge timers, and fan-in resolutions.
func benchPipelineConfig(requests int, rec *trace.Recorder) Config {
	tier := func(name string, replicas int, mean time.Duration) TierConfig {
		pool := make([]cluster.SimReplica, replicas)
		for i := range pool {
			pool[i] = cluster.SimReplica{Service: queueing.ExponentialService{Mean: mean}}
		}
		return TierConfig{Name: name, App: "bench", Policy: cluster.PolicyLeastQueue, Replicas: replicas, SimReplicas: pool}
	}
	shards := tier("shards", 8, time.Millisecond)
	shards.FanOut = 4
	shards.HedgeDelay = 4 * time.Millisecond
	return Config{
		Tiers:    []TierConfig{tier("front", 2, 250*time.Microsecond), shards},
		QPS:      300,
		Requests: requests,
		Seed:     1,
		Trace:    rec,
	}
}

// BenchmarkPipelineSim measures the multi-tier event queue's throughput:
// each root contributes one front-end event pair plus fanout shard event
// pairs (hedge duplicates excluded — they vary in count), reported as
// events/s. The traced variant bounds the tracing overhead.
// TestSimulateMarginalAllocs pins the allocations of both variants; bench/'s
// sim-pipeline workload tracks the throughput.
func BenchmarkPipelineSim(b *testing.B) {
	const requests = 5000
	run := func(b *testing.B, traced bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var rec *trace.Recorder
			if traced {
				rec = trace.NewRecorder(8, 0)
			}
			if _, err := Simulate(benchPipelineConfig(requests, rec)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(2*(1+4)*requests*b.N)/b.Elapsed().Seconds(), "events/s")
	}
	b.Run("plain", func(b *testing.B) { run(b, false) })
	b.Run("traced", func(b *testing.B) { run(b, true) })
}
