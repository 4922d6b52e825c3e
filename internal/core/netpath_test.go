package core_test

import (
	"testing"
	"time"

	"tailbench/internal/app"
	"tailbench/internal/cluster"
	"tailbench/internal/core"
)

// runOneReplica runs server as a one-replica cluster over transport: the
// path the loopback and networked configurations of a single-server run
// take.
func runOneReplica(t *testing.T, transport string, server app.Server, cfg cluster.Config) *cluster.Result {
	t.Helper()
	cfg.Transport, cfg.Replicas = transport, 1
	res, err := cluster.Run(server.Name(), []app.Server{server}, core.FakeFactory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNetServerLoopback(t *testing.T) {
	srv := core.NewFakeServer("fake", 30*time.Microsecond, false)
	cfg := cluster.Config{QPS: 1000, Threads: 2, Requests: 200, WarmupRequests: 40, Seed: 13, KeepRaw: true, Validate: true}
	res := runOneReplica(t, cluster.TransportLoopback, srv, cfg)
	if res.Requests != 200 {
		t.Errorf("requests = %d", res.Requests)
	}
	if res.Errors != 0 {
		t.Errorf("errors = %d", res.Errors)
	}
	// Sojourn over TCP includes protocol overheads, so it must be at least
	// the server-measured service time.
	if res.Sojourn.Mean < res.Service.Mean {
		t.Errorf("sojourn mean (%v) should be >= service mean (%v)", res.Sojourn.Mean, res.Service.Mean)
	}
}

func TestNetworkedAddsDelay(t *testing.T) {
	srv := core.NewFakeServer("fake", 20*time.Microsecond, false)
	// The injected one-way delay is large relative to scheduling noise
	// (hundreds of microseconds on a busy single-CPU machine), so the
	// p50 comparison stays robust under full-suite contention.
	base := cluster.Config{QPS: 500, Threads: 1, Requests: 150, WarmupRequests: 30, Seed: 17, NetDelay: time.Millisecond}
	loop := runOneReplica(t, cluster.TransportLoopback, srv, base)
	netw := runOneReplica(t, cluster.TransportNetworked, srv, base)
	diff := netw.Sojourn.P50 - loop.Sojourn.P50
	if diff < 1200*time.Microsecond {
		t.Errorf("networked config should add ~2ms RTT vs loopback; p50 difference was %v", diff)
	}
}

func TestNetServerErrorPropagation(t *testing.T) {
	srv := core.NewFakeServer("fail", 0, true)
	cfg := cluster.Config{QPS: 0, Threads: 1, Requests: 40, WarmupRequests: 10, Seed: 19}
	res := runOneReplica(t, cluster.TransportLoopback, srv, cfg)
	if res.Errors != 40 {
		t.Errorf("errors = %d, want 40", res.Errors)
	}
}
