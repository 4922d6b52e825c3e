package pipeline

import (
	"reflect"
	"testing"
	"time"

	"tailbench/internal/cluster"
)

// TestLiveOneTierIdentity is the live analogue of
// TestPipelineSingleTierGolden: the same roundrobin, fixed-seed echo
// scenario through cluster.Run and through a one-tier pipeline.Run routes
// every request to the same replica (both engines drive the same
// cluster.Fleet), on every transport. Each run also has to conserve
// requests: everything dispatched is accounted for at its replica, and the
// replicas' dispatch counts add up to the offered requests plus warm-ups —
// including when a threshold autoscaler drains replicas mid-run (where
// routing depends on tick timing, so only conservation is compared).
func TestLiveOneTierIdentity(t *testing.T) {
	const requests, replicas = 600, 3
	// A cluster idling at a depth far below LowDepth sheds a replica per tick.
	scaleDown := &cluster.AutoscaleConfig{
		Policy:      cluster.ControllerThreshold,
		MinReplicas: 1,
		MaxReplicas: replicas,
		Interval:    20 * time.Millisecond,
		HighDepth:   50,
		LowDepth:    5,
	}
	for _, tc := range []struct {
		name      string
		transport string
		warmups   int
		autoscale *cluster.AutoscaleConfig
	}{
		{"inprocess", cluster.TransportInProcess, 90, nil},
		{"loopback", cluster.TransportLoopback, 90, nil},
		{"inprocess-draining", cluster.TransportInProcess, -1, scaleDown},
		{"loopback-draining", cluster.TransportLoopback, -1, scaleDown},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tier := echoTier(replicas, 100*time.Microsecond)
			tier.Policy = cluster.PolicyRoundRobin
			tier.Transport = tc.transport
			tier.Autoscale = tc.autoscale
			warmups := max(tc.warmups, 0)

			cres, err := cluster.Run("echo", tier.Servers, tier.NewClient, cluster.Config{
				Policy: tier.Policy, Transport: tier.Transport, Autoscale: tier.Autoscale, Validate: true,
				QPS: 2000, Requests: requests, WarmupRequests: tc.warmups, Seed: 9,
			})
			if err != nil {
				t.Fatal(err)
			}
			pres, err := Run(Config{
				Tiers: []TierConfig{tier},
				QPS:   2000, Requests: requests, WarmupRequests: tc.warmups, Seed: 9,
			})
			if err != nil {
				t.Fatal(err)
			}
			if cres.Requests != requests || pres.Requests != requests || cres.Errors+pres.Errors != 0 {
				t.Fatalf("requests/errors = %d/%d (cluster), %d/%d (pipeline), want %d/0",
					cres.Requests, cres.Errors, pres.Requests, pres.Errors, requests)
			}

			dispatched := func(engine string, rows []cluster.ReplicaStats) []uint64 {
				var vec []uint64
				var sum, accounted, drained uint64
				for _, row := range rows {
					vec = append(vec, row.Dispatched)
					sum += row.Dispatched
					accounted += row.Requests + row.Errors
					if row.State != cluster.StateActive.String() {
						drained++
					}
					// Round-robin over a fixed set deals warm-ups out evenly
					// (the draining runs have none).
					if got, want := row.Requests+row.Errors, row.Dispatched-uint64(warmups/replicas); got != want {
						t.Errorf("%s replica %d: completed+errors = %d, want dispatched-warmups = %d", engine, row.Index, got, want)
					}
				}
				if want := uint64(requests + warmups); sum != want {
					t.Errorf("%s: replicas dispatched %d in total, want requests+warmups = %d", engine, sum, want)
				}
				if accounted+uint64(warmups) != sum {
					t.Errorf("%s: completed+errors+warmups = %d, want dispatched = %d", engine, accounted+uint64(warmups), sum)
				}
				if tc.autoscale != nil && drained == 0 {
					t.Errorf("%s: the autoscaler drained no replica: %+v", engine, rows)
				}
				return vec
			}
			cvec := dispatched("cluster", cres.PerReplica)
			pvec := dispatched("pipeline", pres.Tiers[0].PerReplica)
			if tc.autoscale == nil && !reflect.DeepEqual(cvec, pvec) {
				t.Errorf("per-replica dispatch differs: cluster %v, pipeline %v", cvec, pvec)
			}
		})
	}
}
