package cluster

import (
	"strings"
	"testing"
	"time"

	"tailbench/internal/app"
)

// fakeServers builds a pool of n fake servers with the given service delay.
func fakeServers(n int, delay time.Duration) []app.Server {
	servers := make([]app.Server, n)
	for i := range servers {
		servers[i] = &fakeServer{delay: delay}
	}
	return servers
}

// netClusterConfig is the shared fixture for networked-transport runs:
// every request validated, a sane open-loop rate, and enough traffic that
// the connection pools and the client-side balancer see real concurrency
// (the -race CI job runs these tests too — they are the data-race coverage
// for the networked dispatch path).
func netClusterConfig(transport string) Config {
	return Config{
		Policy:         PolicyLeastQueue,
		Threads:        2,
		Transport:      transport,
		QPS:            4000,
		Requests:       600,
		WarmupRequests: 100,
		Seed:           3,
		Validate:       true,
	}
}

// TestNetTransportLoopbackCluster drives a full loopback cluster run: each
// replica behind its own NetServer, the balancer client-side, and the whole
// accounting surface (per-replica rows, depth, server-measured components)
// populated.
func TestNetTransportLoopbackCluster(t *testing.T) {
	res, err := Run("fake", fakeServers(3, 100*time.Microsecond),
		func(seed int64) (app.Client, error) { return fakeClient{}, nil },
		netClusterConfig(TransportLoopback))
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 600 || res.Errors != 0 {
		t.Fatalf("requests=%d errors=%d, want 600/0", res.Requests, res.Errors)
	}
	if len(res.PerReplica) != 3 {
		t.Fatalf("PerReplica has %d entries, want 3", len(res.PerReplica))
	}
	var dispatched, measured uint64
	for _, rep := range res.PerReplica {
		dispatched += rep.Dispatched
		measured += rep.Requests
		if rep.Dispatched == 0 {
			t.Errorf("replica %d never dispatched to", rep.Index)
		}
	}
	if dispatched != 700 || measured != 600 {
		t.Errorf("dispatched=%d measured=%d, want 700/600", dispatched, measured)
	}
	// The server-measured service time crosses the wire in the response
	// header: it must reflect the fake server's real delay.
	if res.Service.P50 < 100*time.Microsecond {
		t.Errorf("server-measured service p50 = %v, want >= the 100µs process delay", res.Service.P50)
	}
	if res.Sojourn.Count != 600 || res.Sojourn.Mean <= 0 {
		t.Errorf("suspicious sojourn summary: %+v", res.Sojourn)
	}
}

// TestNetTransportNetworkedDelay pins the synthetic NIC/switch charge: with
// a delay far above real loopback costs, every sojourn must carry at least
// the 2x one-way RTT while the server-measured components stay unchanged.
func TestNetTransportNetworkedDelay(t *testing.T) {
	const delay = 2 * time.Millisecond
	cfg := netClusterConfig(TransportNetworked)
	cfg.NetDelay = delay
	res, err := Run("fake", fakeServers(3, 50*time.Microsecond),
		func(seed int64) (app.Client, error) { return fakeClient{}, nil }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 600 || res.Errors != 0 {
		t.Fatalf("requests=%d errors=%d, want 600/0", res.Requests, res.Errors)
	}
	if res.Sojourn.Min < 2*delay {
		t.Errorf("min sojourn %v below the synthetic RTT %v", res.Sojourn.Min, 2*delay)
	}
	if res.Service.P50 >= delay {
		t.Errorf("server-measured service %v absorbed the synthetic delay", res.Service.P50)
	}
}

// TestNetTransportSlowdown pins server-side straggler injection: a slowed
// slot's inflation must show up in the server-measured service times shipped
// back in the response headers.
func TestNetTransportSlowdown(t *testing.T) {
	cfg := netClusterConfig(TransportLoopback)
	cfg.Policy = PolicyRoundRobin
	cfg.Slowdowns = []float64{4, 1, 1}
	// A 1ms base keeps the 4x inflation far above scheduler and race-
	// detector noise; the low rate keeps queues empty so service times are
	// clean.
	cfg.QPS = 600
	cfg.Requests = 200
	cfg.WarmupRequests = 40
	res, err := Run("fake", fakeServers(3, time.Millisecond),
		func(seed int64) (app.Client, error) { return fakeClient{}, nil }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerReplica[0].Slowdown != 4 {
		t.Fatalf("slowdown not recorded: %+v", res.PerReplica[0])
	}
	slow, nominal := res.PerReplica[0].Service.P50, res.PerReplica[1].Service.P50
	if slow < 2*nominal {
		t.Errorf("slowed replica service p50 %v not clearly above nominal %v", slow, nominal)
	}
}

// TestNetTransportAutoscale exercises provision (dial mid-run) and drain
// (connection-level no-op, membership-level retire) over the networked
// transport: an overload spike must scale the replica set up and back down
// with every request accounted for.
func TestNetTransportAutoscale(t *testing.T) {
	cfg := netClusterConfig(TransportLoopback)
	cfg.Threads = 1
	cfg.Policy = PolicyLeastQueue
	cfg.QPS = 3000
	cfg.Requests = 900
	cfg.WarmupRequests = 100
	cfg.Replicas = 1
	cfg.Autoscale = &AutoscaleConfig{
		Policy:      ControllerThreshold,
		MinReplicas: 1,
		MaxReplicas: 4,
		Interval:    20 * time.Millisecond,
		HighDepth:   2,
		LowDepth:    0.5,
		DrainPolicy: DrainLeastLoaded,
	}
	res, err := Run("fake", fakeServers(4, 600*time.Microsecond),
		func(seed int64) (app.Client, error) { return fakeClient{}, nil }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 900 || res.Errors != 0 {
		t.Fatalf("requests=%d errors=%d, want 900/0", res.Requests, res.Errors)
	}
	if res.PeakReplicas <= 1 {
		t.Fatalf("overloaded networked cluster never scaled: peak=%d", res.PeakReplicas)
	}
	if len(res.ScalingEvents) == 0 {
		t.Fatal("no scaling events recorded")
	}
}

// TestUnknownTransport pins the configuration error.
func TestUnknownTransport(t *testing.T) {
	cfg := netClusterConfig("carrier-pigeon")
	_, err := Run("fake", fakeServers(2, 0),
		func(seed int64) (app.Client, error) { return fakeClient{}, nil }, cfg)
	if err == nil || !strings.Contains(err.Error(), "unknown transport") {
		t.Fatalf("err = %v, want unknown transport", err)
	}
}

// TestHarnessFloor measures a one-replica loopback cluster, the path of a
// single-server loopback run, against an echo server at 2,000 QPS: with no
// service time, the reported sojourn is the harness's own. It catches a
// pacer that sleeps outside the netpoller, which starves the connection
// goroutines it paces.
func TestHarnessFloor(t *testing.T) {
	t.Run(TransportLoopback, func(t *testing.T) {
		res, err := Run("echo", fakeServers(1, 0), newFakeClient, Config{
			Transport: TransportLoopback, Replicas: 1, QPS: 2000, Threads: 1,
			Requests: 2000, WarmupRequests: 100, Seed: 23,
		})
		if err != nil {
			t.Fatal(err)
		}
		if floor := 200 * time.Microsecond; res.Sojourn.P50 >= floor {
			t.Errorf("echo sojourn p50 = %v at 2000 QPS, want < %v", res.Sojourn.P50, floor)
		}
	})
}
