package tailbench

import (
	"errors"
	"math"
	"testing"
)

// TestRunClusterIntegratedAllPolicies exercises the live cluster path for
// every balancer policy against two real applications.
func TestRunClusterIntegratedAllPolicies(t *testing.T) {
	for _, appName := range []string{"masstree", "xapian"} {
		for _, policy := range BalancerPolicies() {
			t.Run(appName+"/"+policy, func(t *testing.T) {
				res, err := RunCluster(ClusterSpec{
					App:      appName,
					Mode:     ModeIntegrated,
					Policy:   policy,
					Replicas: 2,
					Threads:  1,
					QPS:      3000,
					Requests: 200,
					Warmup:   40,
					Scale:    0.05,
					Seed:     1,
					// Validation proves every replica serves the client's
					// dataset (replicas must share the client's seed).
					Validate: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Policy != policy || res.Replicas != 2 {
					t.Fatalf("result mislabeled: %s", res)
				}
				if res.Requests != 200 {
					t.Fatalf("Requests = %d, want 200", res.Requests)
				}
				if res.Errors != 0 {
					t.Fatalf("Errors = %d, want 0", res.Errors)
				}
				if len(res.PerReplica) != 2 {
					t.Fatalf("PerReplica has %d entries, want 2", len(res.PerReplica))
				}
				var dispatched, measured uint64
				for _, rep := range res.PerReplica {
					dispatched += rep.Dispatched
					measured += rep.Requests
					if rep.Dispatched == 0 {
						t.Errorf("replica %d received no traffic under %s", rep.Index, policy)
					}
				}
				if dispatched != 240 {
					t.Errorf("total dispatched = %d, want 240 (incl. warmup)", dispatched)
				}
				if measured != res.Requests {
					t.Errorf("per-replica measured sum = %d, aggregate = %d", measured, res.Requests)
				}
				if res.Sojourn.P99 <= 0 || res.Sojourn.Mean <= 0 {
					t.Errorf("suspicious sojourn stats: %+v", res.Sojourn)
				}
			})
		}
	}
}

// TestRunClusterStraggler demonstrates through the public API that
// queue-aware balancing routes around a slowed replica that random routing
// keeps feeding, both in virtual time and over the networked transport.
// Each row calibrates the real application once; only the qualitative gap
// is asserted, since the samples follow the host.
func TestRunClusterStraggler(t *testing.T) {
	cases := []struct {
		name     string
		mode     Mode
		app      string
		scale    float64
		slowdown float64
		// load is the offered QPS in units of one replica's saturation.
		load     float64
		requests int
	}{
		// 70% of the nominal 4-replica capacity: overwhelming for the slowed
		// replica under random routing, comfortable for queue-aware
		// policies. Every policy simulates on the same samples, and the
		// simulation is exactly deterministic given the seed (see
		// internal/cluster's TestSimulateDeterministic), so the runs differ
		// in the policy alone.
		{"simulated", ModeSimulated, "masstree", 0.05, 4, 2.8, 3000},
		// Every replica behind its own NetServer, the balancer steering by
		// the stale client-side depth estimate. Half of one replica's
		// saturation leaves the machine ample headroom, yet random's quarter
		// share (12.5% of nominal) overloads the 10x straggler (10%).
		{"networked", ModeNetworked, "xapian", 0.1, 10, 0.5, 1000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.mode != ModeSimulated && testing.Short() {
				t.Skip("live networked cluster runs skipped in -short mode")
			}
			samples, err := MeasureServiceTimes(tc.app, tc.scale, 5, 200)
			if err != nil {
				t.Fatal(err)
			}
			run := func(policy string) *ClusterResult {
				t.Helper()
				spec := ClusterSpec{
					App:       tc.app,
					Mode:      tc.mode,
					Policy:    policy,
					Replicas:  4,
					Threads:   1,
					QPS:       tc.load * SaturationQPS(samples, 1),
					Requests:  tc.requests,
					Warmup:    tc.requests / 10,
					Scale:     tc.scale,
					Seed:      5,
					Slowdowns: []float64{tc.slowdown, 1, 1, 1},
				}
				if tc.mode == ModeSimulated {
					spec.ServiceSamples = samples
				}
				res, err := RunCluster(spec)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			random := run("random")
			if random.PerReplica[0].Slowdown != tc.slowdown {
				t.Errorf("straggler slowdown not recorded: %+v", random.PerReplica[0])
			}
			for _, policy := range []string{"leastq", "jsq2"} {
				res := run(policy)
				if res.PerReplica[0].Dispatched >= random.PerReplica[0].Dispatched {
					t.Errorf("%s sent %d requests to the straggler, random sent %d; expected fewer",
						policy, res.PerReplica[0].Dispatched, random.PerReplica[0].Dispatched)
				}
				if res.Sojourn.P99 >= random.Sojourn.P99 {
					t.Errorf("%s p99 = %v, want < random p99 = %v", policy, res.Sojourn.P99, random.Sojourn.P99)
				}
			}
		})
	}
}

func TestRunClusterValidation(t *testing.T) {
	if _, err := RunCluster(ClusterSpec{App: "no-such-app"}); err == nil {
		t.Error("unknown app should be rejected")
	}
	_, err := RunCluster(ClusterSpec{App: "masstree", Mode: Mode(99)})
	var modeErr ErrClusterMode
	if !errors.As(err, &modeErr) || modeErr.Mode != Mode(99) {
		t.Errorf("unknown cluster mode: got %v, want ErrClusterMode", err)
	}
	if _, err := RunCluster(ClusterSpec{App: "masstree", Policy: "bogus", Requests: 10, Scale: 0.05}); err == nil {
		t.Error("unknown policy should be rejected")
	}
	if _, err := RunCluster(ClusterSpec{App: "masstree", Replicas: 2, Slowdowns: []float64{1, 1, 1}, Scale: 0.05}); err == nil {
		t.Error("mismatched slowdowns length should be rejected")
	}
	if _, err := RunCluster(ClusterSpec{App: "masstree", Mode: ModeSimulated, Replicas: 2, Slowdowns: []float64{1, 1, 1}, Scale: 0.05}); err == nil {
		t.Error("mismatched slowdowns length should be rejected in simulated mode too")
	}
	if _, err := RunCluster(ClusterSpec{App: "masstree", Requests: -5, Scale: 0.05}); err == nil {
		t.Error("negative Requests should be rejected, matching Run")
	}
	if _, err := RunCluster(ClusterSpec{App: "masstree", Replicas: 2, Slowdowns: []float64{math.NaN(), 1}, Scale: 0.05}); err == nil {
		t.Error("non-finite slowdowns should be rejected")
	}
}
