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

// TestRunClusterSimulatedStraggler demonstrates through the public API that
// queue-aware balancing beats random routing on a cluster with one slowed
// replica. The calibration stage measures the real application once and both
// policies simulate on those same samples: the simulation stage is exactly
// deterministic given the seed (see internal/cluster's
// TestSimulateDeterministic), so the two runs differ in the policy alone.
// The samples themselves follow the host, so only the qualitative gap is
// asserted.
func TestRunClusterSimulatedStraggler(t *testing.T) {
	samples, err := MeasureServiceTimes("masstree", 0.05, 5, 200)
	if err != nil {
		t.Fatal(err)
	}
	// 70% of the nominal 4-replica capacity: overwhelming for the slowed
	// replica under random routing, comfortable for queue-aware policies.
	qps := 0.7 * 4 * SaturationQPS(samples, 1)
	run := func(policy string) *ClusterResult {
		t.Helper()
		res, err := RunCluster(ClusterSpec{
			App:            "masstree",
			Mode:           ModeSimulated,
			Policy:         policy,
			Replicas:       4,
			Threads:        1,
			QPS:            qps,
			Requests:       3000,
			Warmup:         300,
			Scale:          0.05,
			Seed:           5,
			Slowdowns:      []float64{4, 1, 1, 1},
			ServiceSamples: samples,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	random := run("random")
	jsq2 := run("jsq2")
	if jsq2.Sojourn.P99 >= random.Sojourn.P99 {
		t.Errorf("jsq2 p99 = %v, want < random p99 = %v", jsq2.Sojourn.P99, random.Sojourn.P99)
	}
	if random.PerReplica[0].Slowdown != 4 {
		t.Errorf("straggler slowdown not recorded: %+v", random.PerReplica[0])
	}
	if jsq2.PerReplica[0].Dispatched >= random.PerReplica[0].Dispatched {
		t.Errorf("jsq2 sent %d requests to the straggler, random sent %d; expected fewer",
			jsq2.PerReplica[0].Dispatched, random.PerReplica[0].Dispatched)
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
