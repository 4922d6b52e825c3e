package cluster

import (
	"testing"
	"time"

	"tailbench/internal/queueing"
	"tailbench/internal/trace"
)

// benchSimConfig is the fixed-seed workload the engine microbenchmark runs:
// a 4-replica, 2-thread cluster under queue-aware balancing at ~70% load
// with exponential service, so the event loop exercises real queueing (not
// just pass-through dispatch).
func benchSimConfig(requests int, rec *trace.Recorder) SimConfig {
	pool := make([]SimReplica, 4)
	for i := range pool {
		pool[i] = SimReplica{Service: queueing.ExponentialService{Mean: time.Millisecond}}
	}
	return SimConfig{
		Policy:   PolicyLeastQueue,
		Threads:  2,
		QPS:      0.7 * 8 / time.Millisecond.Seconds(),
		Requests: requests,
		Seed:     1,
		Replicas: pool,
		Trace:    rec,
	}
}

// BenchmarkSimCluster measures the virtual-time cluster engine's event
// throughput: each request is one dispatch event plus one completion event,
// reported as events/s. The traced variant bounds the tracing overhead
// against the plain hot path. TestSimulateMarginalAllocs pins the
// allocations of both variants; bench/'s sim-cluster workload tracks the
// throughput.
func BenchmarkSimCluster(b *testing.B) {
	const requests = 20000
	run := func(b *testing.B, traced bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var rec *trace.Recorder
			if traced {
				rec = trace.NewRecorder(8, 0)
			}
			if _, err := Simulate(benchSimConfig(requests, rec)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(2*requests*b.N)/b.Elapsed().Seconds(), "events/s")
	}
	b.Run("plain", func(b *testing.B) { run(b, false) })
	b.Run("traced", func(b *testing.B) { run(b, true) })
}
