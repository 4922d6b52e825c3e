// Package pipeline implements the multi-tier serving harness: a chain of
// clusters (each a full internal/cluster tier — replicas behind a pluggable
// balancer, with an optional autoscaling control loop) connected by
// fan-out/fan-in edges. A root request enters tier 0; when a request
// finishes service at tier i it spawns FanOut sub-requests into tier i+1 and
// completes only when all of them have completed (fan-in waits for the
// slowest — the straggler-dominated "tail at scale" semantics), so a root's
// recorded sojourn is its end-to-end span across every tier it touched.
// Edges may carry a hedging policy: a sub-request that has not completed
// within the edge's delay budget is duplicated onto another replica and the
// first response wins (the loser still consumes capacity, as in real
// systems).
//
// Two execution paths mirror the cluster engines: Run drives real
// app.Server replicas with goroutines on the wall clock, and Simulate runs
// the same topology as a deterministic virtual-time discrete-event
// simulation (one cluster.SimCluster per tier under a global event queue),
// exactly reproducible per seed. A single-tier pipeline with no fan-out is
// bit-identical to the corresponding cluster run on the simulated path.
package pipeline

import (
	"errors"
	"fmt"
	"time"

	"tailbench/internal/app"
	"tailbench/internal/cluster"
	"tailbench/internal/core"
	"tailbench/internal/load"
	"tailbench/internal/metrics"
	"tailbench/internal/trace"
	"tailbench/internal/workload"
)

// TierConfig describes one tier of the pipeline: the cluster serving it and
// the edge feeding it (fan-out degree and hedging budget, both properties of
// the edge from the previous tier — tier 0 is fed by the root arrival
// process, so its FanOut is forced to 1 and its HedgeDelay is ignored).
type TierConfig struct {
	// Name labels the tier in results (default "tier<i>").
	Name string
	// App labels the tier's application.
	App string
	// Policy is the tier's balancer policy (see cluster.Policies; default
	// leastq).
	Policy string
	// Threads is the number of worker threads per replica (default 1).
	Threads int
	// ThreadsPer optionally assigns each live pool slot its own worker
	// thread count (heterogeneous tiers); empty means every replica runs
	// Threads workers, otherwise its length must equal len(Servers). The
	// simulated path expresses the same via SimReplica.Threads.
	ThreadsPer []int
	// Replicas is the tier's initial active replica count; zero means the
	// whole pool.
	Replicas int
	// FanOut is the number of sub-requests a completed parent request
	// spawns into this tier (>= 1; tier 0 is forced to 1).
	FanOut int
	// HedgeDelay is the edge's hedging budget: a sub-request not completed
	// within it is duplicated once onto the tier and the first response
	// wins. Zero disables hedging; tier 0 never hedges.
	HedgeDelay time.Duration
	// HedgeRTTFloor makes the live path derive the effective budget from
	// the edge's round-trip floor: HedgeDelay plus the synthetic RTT
	// (2×NetDelay on networked edges) plus the smallest wire time observed
	// on any completed copy so far, so hedging never fires inside time the
	// transport costs every request. The simulated path has no wire time
	// and charges no synthetic RTT, so it ignores this flag and uses
	// HedgeDelay as configured.
	HedgeRTTFloor bool
	// Autoscale enables the tier's autoscaling control loop; nil keeps the
	// tier's membership fixed.
	Autoscale *cluster.AutoscaleConfig

	// Transport selects how sub-requests cross the edge into this tier on
	// the live path (see cluster.Transports): "" or "inprocess" hands them
	// to per-replica worker pools over in-process queues; "loopback" puts
	// each tier replica behind its own NetServer with the edge's balancer
	// staying client-side; "networked" additionally charges the synthetic
	// one-way NetDelay per hop. Tier 0's edge is the root dispatcher's hop
	// into the front-end tier, so it participates like any other edge. The
	// virtual-time path ignores it (the simulation models no network
	// stack).
	Transport string
	// NetDelay is the one-way synthetic network delay of a networked edge
	// (default cluster.DefaultNetDelay). The delay is charged to recorded
	// latency — each sub-request's tier-local sojourn gains one RTT, and a
	// root's end-to-end sojourn accumulates the RTTs along its critical
	// path — while hedge budgets and fan-out timing run on the real clock,
	// which already includes the true loopback wire time.
	NetDelay time.Duration

	// SimReplicas describes the tier's replica pool for the simulated path,
	// one spec per slot.
	SimReplicas []cluster.SimReplica

	// Servers is the tier's replica server pool for the live path (the
	// caller owns them); NewClient builds the tier's payload generator, and
	// Validate makes workers check every response against it. QueueCap
	// bounds each replica's queue (default 4096) and Slowdowns optionally
	// assigns per-slot service-time inflation factors.
	Servers   []app.Server
	NewClient core.ClientFactory
	Validate  bool
	QueueCap  int
	Slowdowns []float64
}

// Config parameterizes one pipeline measurement. Root arrivals are produced
// by the same open-loop shaped traffic machinery as every other harness in
// the suite; Requests, WarmupRequests, and Seed follow the cluster
// conventions (10% default warmup, negative for none, seed 0 meaning 1).
type Config struct {
	// Tiers is the chain, front-end first. At least one tier is required.
	Tiers []TierConfig
	// QPS is the root arrival rate; 0 means saturation. Ignored when Load
	// is set.
	QPS float64
	// Load is the root arrival-rate profile; nil means Constant(QPS).
	Load load.Shape
	// Window is the windowed-accounting width; zero picks one automatically
	// for time-varying shapes, negative disables windows.
	Window time.Duration
	// Requests is the number of measured root requests (default 1000).
	Requests int
	// WarmupRequests is the number of discarded warmup roots (0 = 10% of
	// Requests, negative = none).
	WarmupRequests int
	// Seed drives arrivals, balancers, and service draws.
	Seed int64
	// KeepRaw retains every end-to-end sojourn sample in the result.
	KeepRaw bool
	// Timeout bounds a live run (default derived from the arrival horizon).
	Timeout time.Duration
	// Trace, when non-nil, records a span tree per measured root — the full
	// fan-out/fan-in/hedge structure — and retains the slowest per window
	// (see internal/trace). Nil keeps the dispatch paths allocation-free.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives live per-tier counters and histograms
	// as the run progresses (live path only); results are identical with or
	// without it.
	Metrics *metrics.Registry
	// StopWhen, when non-nil, is polled by the simulated path whenever an
	// end-to-end accounting window completes (every measured root binned
	// into it has resolved); returning true aborts the run there. The
	// snapshot aggregates all tiers: Events and ReplicaSeconds sum over the
	// tier engines, Measured counts resolved measured roots. As with the
	// cluster hook, polling requires an explicit positive Window; the live
	// path ignores the hook.
	StopWhen func(cluster.SimSnapshot) bool
}

// Errors returned by pipeline configuration validation.
var (
	ErrNoTiers  = errors.New("pipeline: at least one tier is required")
	ErrTimedOut = errors.New("pipeline: live run timed out before every root request completed")
)

// maxSubRequests bounds the total fan-out explosion (roots times the product
// of fan-out degrees, summed over tiers) so a typo'd degree fails fast
// instead of allocating the universe.
const maxSubRequests = 1 << 24

// withDefaults normalizes a Config.
func (c Config) withDefaults() (Config, error) {
	if len(c.Tiers) == 0 {
		return c, ErrNoTiers
	}
	if c.Requests <= 0 {
		c.Requests = 1000
	}
	if c.WarmupRequests == 0 {
		c.WarmupRequests = c.Requests / 10
	} else if c.WarmupRequests < 0 {
		c.WarmupRequests = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	tiers := make([]TierConfig, len(c.Tiers))
	copy(tiers, c.Tiers)
	c.Tiers = tiers
	total := c.Requests + c.WarmupRequests
	subRequests := 0
	perRoot := 1
	for i := range c.Tiers {
		t := &c.Tiers[i]
		if t.Name == "" {
			t.Name = fmt.Sprintf("tier%d", i)
		}
		if t.Policy == "" {
			t.Policy = cluster.PolicyLeastQueue
		}
		if t.Threads <= 0 {
			t.Threads = 1
		}
		if i == 0 {
			t.FanOut = 1
			t.HedgeDelay = 0
		}
		if t.FanOut <= 0 {
			t.FanOut = 1
		}
		if t.HedgeDelay < 0 {
			return c, fmt.Errorf("pipeline: tier %d HedgeDelay must not be negative (got %v)", i, t.HedgeDelay)
		}
		perRoot *= t.FanOut
		subRequests += perRoot
		if total*perRoot > maxSubRequests {
			return c, fmt.Errorf("pipeline: %d roots fanning out to %d sub-requests at tier %d exceeds the %d sub-request budget",
				total, total*perRoot, i, maxSubRequests)
		}
	}
	return c, nil
}

// tierSeed derives the seed stream for tier t. Tier 0 uses the run seed
// directly so a single-tier pipeline draws the exact balancer and service
// streams of the equivalent cluster run (the bit-compatibility guarantee);
// deeper tiers branch into their own streams.
func tierSeed(seed int64, t int) int64 {
	if t == 0 {
		return seed
	}
	return workload.SplitSeed(seed, int64(1000+t))
}

// fanMultipliers returns, per tier, the number of sub-requests one root
// produces at that tier (the product of fan-out degrees up the chain) — the
// factor the root arrival rate is multiplied by to get the tier's nominal
// offered rate.
func fanMultipliers(tiers []TierConfig) []int {
	mult := make([]int, len(tiers))
	m := 1
	for i, t := range tiers {
		m *= t.FanOut
		mult[i] = m
	}
	return mult
}
