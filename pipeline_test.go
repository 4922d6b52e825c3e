package tailbench

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// expServiceSamples builds a deterministic exponential-tailed service-time
// sample set (max-of-k order statistics of an exponential tail grow without
// bound, which is what makes fan-out amplification cleanly measurable).
func expServiceSamples(n int, mean time.Duration, seed int64) []time.Duration {
	r := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(-float64(mean) * math.Log(1-r.Float64()))
	}
	return out
}

// bimodalServiceSamples mirrors examples/fanout's xapian-like shard model:
// mostly fast index probes plus a rare (1%) slow-query mode 5-30x longer.
func bimodalServiceSamples(n int, seed int64) []time.Duration {
	r := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	for i := range out {
		if r.Float64() < 0.01 {
			out[i] = 600*time.Microsecond + time.Duration(r.Int63n(int64(2400*time.Microsecond)))
		} else {
			out[i] = 60*time.Microsecond + time.Duration(r.Int63n(int64(100*time.Microsecond)))
		}
	}
	return out
}

// TestPipelineSingleTierGolden pins the pipeline subsystem's compatibility
// guarantee: a single-tier pipeline with no fan-out and no hedging is the
// same experiment as a cluster run, and on the simulated path it must be
// bit-identical — same sojourn stream, same summaries, same per-replica
// rows — for every balancer policy. Any drift in the event ordering, seed
// derivation, or accounting of the pipeline engine shows up here.
func TestPipelineSingleTierGolden(t *testing.T) {
	samples := syntheticServiceSamples(300, 11)
	for _, policy := range BalancerPolicies() {
		cres, err := RunCluster(ClusterSpec{
			App: "masstree", Mode: ModeSimulated, Policy: policy, Replicas: 3, Threads: 2,
			QPS: 2500, Requests: 4000, Warmup: 400, Seed: 9, KeepRaw: true, ServiceSamples: samples,
		})
		if err != nil {
			t.Fatal(err)
		}
		pres, err := RunPipeline(PipelineSpec{
			Mode: ModeSimulated,
			Tiers: []TierSpec{{Cluster: ClusterSpec{
				App: "masstree", Policy: policy, Replicas: 3, Threads: 2, ServiceSamples: samples,
			}}},
			QPS: 2500, Requests: 4000, Warmup: 400, Seed: 9, KeepRaw: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sojournHash(pres.SojournSamples), sojournHash(cres.SojournSamples); got != want {
			t.Errorf("%s: sojourn stream hash = %#x, want the cluster engine's %#x", policy, got, want)
		}
		if pres.Sojourn != cres.Sojourn {
			t.Errorf("%s: end-to-end sojourn summary diverged:\n pipeline: %+v\n cluster:  %+v", policy, pres.Sojourn, cres.Sojourn)
		}
		if pres.Elapsed != cres.Elapsed || pres.AchievedQPS != cres.AchievedQPS {
			t.Errorf("%s: elapsed/achieved diverged: %v/%.3f vs %v/%.3f",
				policy, pres.Elapsed, pres.AchievedQPS, cres.Elapsed, cres.AchievedQPS)
		}
		tier := pres.Tiers[0]
		if tier.Queue != cres.Queue || tier.Service != cres.Service || tier.Sojourn != cres.Sojourn {
			t.Errorf("%s: tier latency summaries diverged from the cluster run", policy)
		}
		if !reflect.DeepEqual(tier.PerReplica, cres.PerReplica) {
			t.Errorf("%s: per-replica rows diverged:\n pipeline: %+v\n cluster:  %+v", policy, tier.PerReplica, cres.PerReplica)
		}
	}
}

// TestPipelineSingleTierGoldenElastic extends the parity guarantee to an
// autoscaled, shaped, windowed single tier: the control loop must tick at
// the same virtual instants and make the same decisions in both engines.
func TestPipelineSingleTierGoldenElastic(t *testing.T) {
	samples := syntheticServiceSamples(400, 3)
	auto := &AutoscaleSpec{
		Policy: "threshold", MinReplicas: 2, MaxReplicas: 8,
		Interval: 5 * time.Millisecond, HighDepth: 1.5, LowDepth: 0.4,
	}
	cluster := ClusterSpec{
		App: "masstree", Policy: "leastq", Replicas: 2,
		Autoscale: auto, ServiceSamples: samples,
	}
	cres, err := RunCluster(ClusterSpec{
		App: "masstree", Mode: ModeSimulated, Policy: "leastq", Replicas: 2,
		Load: Spike(1000, 6000, 2*time.Second, 2*time.Second), Window: time.Second,
		Requests: 15000, Warmup: 1500, Seed: 5, KeepRaw: true,
		Autoscale: auto, ServiceSamples: samples,
	})
	if err != nil {
		t.Fatal(err)
	}
	pres, err := RunPipeline(PipelineSpec{
		Mode:  ModeSimulated,
		Tiers: []TierSpec{{Cluster: cluster}},
		Load:  Spike(1000, 6000, 2*time.Second, 2*time.Second), Window: time.Second,
		Requests: 15000, Warmup: 1500, Seed: 5, KeepRaw: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sojournHash(pres.SojournSamples), sojournHash(cres.SojournSamples); got != want {
		t.Errorf("sojourn stream hash = %#x, want %#x", got, want)
	}
	tier := pres.Tiers[0]
	if !reflect.DeepEqual(tier.ScalingEvents, cres.ScalingEvents) {
		t.Errorf("scaling timelines diverged:\n pipeline: %v\n cluster:  %v", tier.ScalingEvents, cres.ScalingEvents)
	}
	if tier.PeakReplicas != cres.PeakReplicas || tier.ReplicaSeconds != cres.ReplicaSeconds {
		t.Errorf("cost ledger diverged: peak %d/%d, replica-seconds %.3f/%.3f",
			tier.PeakReplicas, cres.PeakReplicas, tier.ReplicaSeconds, cres.ReplicaSeconds)
	}
	if !reflect.DeepEqual(pres.Windows, cres.Windows) {
		t.Errorf("windowed series diverged:\n pipeline: %v\n cluster:  %v", pres.Windows, cres.Windows)
	}
	if !reflect.DeepEqual(tier.PerReplica, cres.PerReplica) {
		t.Error("per-replica rows diverged on the elastic run")
	}
}

// fanoutSpec builds the property-test topology: a light 2-replica front-end
// fanning out to k shard replicas, per-replica shard load held constant
// across k.
func fanoutSpec(k int, samples []time.Duration, hedge *HedgeSpec, qps float64) PipelineSpec {
	front := make([]time.Duration, len(samples))
	for i, s := range samples {
		front[i] = s / 4
	}
	return PipelineSpec{
		Mode: ModeSimulated,
		Tiers: []TierSpec{
			{Name: "frontend", Cluster: ClusterSpec{App: "xapian", Replicas: 2, ServiceSamples: front}},
			{Name: "shards", Cluster: ClusterSpec{App: "xapian", Replicas: k, ServiceSamples: samples}, FanOut: k, Hedge: hedge},
		},
		QPS: qps, Requests: 8000, Warmup: 800, Seed: 3,
	}
}

// TestFanoutTailAmplificationProperty is the max-of-k order-statistics
// property test: with an exponential-tailed shard service and the
// per-replica shard load held constant, the end-to-end p99 must grow
// strictly with the fan-out degree (the p99 of the max of k draws is the
// ~(0.01)^(1/k) upper quantile of one draw, increasing in k), while each
// shard's own per-sub-request p99 stays put. Fixed seed, virtual time —
// the run is exactly reproducible.
func TestFanoutTailAmplificationProperty(t *testing.T) {
	samples := expServiceSamples(500, time.Millisecond, 7)
	var prevP99 time.Duration
	var shardP99s []time.Duration
	for _, k := range []int{1, 2, 4, 8, 16} {
		res, err := RunPipeline(fanoutSpec(k, samples, nil, 150))
		if err != nil {
			t.Fatal(err)
		}
		if res.Sojourn.P99 <= prevP99 {
			t.Errorf("k=%d: end-to-end p99 %v did not grow past %v", k, res.Sojourn.P99, prevP99)
		}
		prevP99 = res.Sojourn.P99
		shards := res.Tiers[1]
		shardP99s = append(shardP99s, shards.Sojourn.P99)
		// The fan-in straggler view must dominate the per-sub-request view,
		// strictly so once there is more than one shard to wait for.
		if shards.Critical.P99 < shards.Sojourn.P99 {
			t.Errorf("k=%d: critical p99 %v below per-sub-request p99 %v", k, shards.Critical.P99, shards.Sojourn.P99)
		}
		if k > 1 && shards.Critical.P50 <= shards.Sojourn.P50 {
			t.Errorf("k=%d: critical p50 %v did not exceed per-sub-request p50 %v", k, shards.Critical.P50, shards.Sojourn.P50)
		}
		if res.Tiers[1].Requests != res.Requests*uint64(k) {
			t.Errorf("k=%d: shard tier served %d sub-requests, want %d", k, res.Tiers[1].Requests, res.Requests*uint64(k))
		}
	}
	// The amplification must come from the fan-in, not from shard-local
	// queueing drift: per-sub-request shard p99 stays within a narrow band
	// across k (per-replica load is constant by construction).
	lo, hi := shardP99s[0], shardP99s[0]
	for _, p := range shardP99s {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	if float64(hi) > 1.25*float64(lo) {
		t.Errorf("per-sub-request shard p99 drifted across k: %v", shardP99s)
	}
}

// TestFanoutStudyAcceptance pins examples/fanout's asserted claims on the
// same topology and service model (a rare slow-query mode), through
// RunPipeline directly: (a) end-to-end p99 amplifies monotonically across
// k in {1, 4, 16}, and (b) hedging the shard edge at the p95 delay budget
// cuts the k=16 p99 by at least 20% — the measured margin is far wider
// (~70%), so the assertion is not knife-edge.
func TestFanoutStudyAcceptance(t *testing.T) {
	samples := bimodalServiceSamples(600, 17)
	qps := 0.2 * SaturationQPS(samples, 1)
	var prev time.Duration
	var unhedged *PipelineResult
	for _, k := range []int{1, 4, 16} {
		res, err := RunPipeline(fanoutSpec(k, samples, nil, qps))
		if err != nil {
			t.Fatal(err)
		}
		if res.Sojourn.P99 <= prev {
			t.Errorf("k=%d: p99 %v did not amplify past %v", k, res.Sojourn.P99, prev)
		}
		prev = res.Sojourn.P99
		unhedged = res
	}
	budget := unhedged.Tiers[1].Sojourn.P95
	hedged, err := RunPipeline(fanoutSpec(16, samples, &HedgeSpec{Delay: budget}, qps))
	if err != nil {
		t.Fatal(err)
	}
	shards := hedged.Tiers[1]
	if shards.HedgesIssued == 0 || shards.HedgeWins == 0 {
		t.Fatalf("hedging never engaged: issued=%d wins=%d", shards.HedgesIssued, shards.HedgeWins)
	}
	// ~5% of sub-requests overrun a p95 budget; the hedge traffic must be
	// in that ballpark, not a storm.
	if frac := float64(shards.HedgesIssued) / float64(shards.Requests); frac > 0.15 {
		t.Errorf("hedge traffic fraction %.2f, want < 0.15 (hedge storm)", frac)
	}
	cut := 1 - float64(hedged.Sojourn.P99)/float64(unhedged.Sojourn.P99)
	if cut < 0.20 {
		t.Errorf("hedging at p95 budget %v cut k=16 p99 by %.1f%%, want >= 20%% (%v -> %v)",
			budget, 100*cut, unhedged.Sojourn.P99, hedged.Sojourn.P99)
	}
}

// TestPipelineSimDeterministic pins reproducibility of the multi-tier
// virtual-time engine, hedging included: same seed, same everything.
func TestPipelineSimDeterministic(t *testing.T) {
	samples := bimodalServiceSamples(400, 5)
	spec := fanoutSpec(8, samples, &HedgeSpec{Delay: 300 * time.Microsecond}, 800)
	a, err := RunPipeline(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPipeline(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed must reproduce the pipeline result exactly")
	}
	spec.Seed = 4
	c, err := RunPipeline(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sojourn == c.Sojourn {
		t.Error("different seeds should produce different runs")
	}
}

// TestPipelineLiveSmoke drives the live goroutine engine end to end on a
// real two-tier masstree topology with a hedged shard edge: every root and
// every sub-request must be accounted for, and the end-to-end sojourn must
// dominate each tier's share.
func TestPipelineLiveSmoke(t *testing.T) {
	res, err := RunPipeline(PipelineSpec{
		Mode: ModeIntegrated,
		Tiers: []TierSpec{
			{Cluster: ClusterSpec{App: "masstree", Replicas: 1, Scale: 0.05}},
			{Cluster: ClusterSpec{App: "masstree", Replicas: 2, Scale: 0.05}, FanOut: 2, Hedge: &HedgeSpec{Delay: 2 * time.Millisecond}},
		},
		QPS: 400, Requests: 400, Warmup: 40, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 400 {
		t.Fatalf("Requests = %d, want 400", res.Requests)
	}
	if res.Tiers[0].Requests != 400 || res.Tiers[1].Requests != 800 {
		t.Fatalf("tier requests = %d/%d, want 400/800", res.Tiers[0].Requests, res.Tiers[1].Requests)
	}
	var dispatched uint64
	for _, rep := range res.Tiers[1].PerReplica {
		dispatched += rep.Dispatched
	}
	// Dispatches = warmup + measured originals, plus any hedge duplicates.
	if want := uint64(880) + res.Tiers[1].HedgesIssued; dispatched != want {
		t.Errorf("shard dispatches = %d, want %d", dispatched, want)
	}
	if res.Sojourn.P50 < res.Tiers[1].Critical.P50 {
		t.Errorf("end-to-end p50 %v below the shard critical path's %v", res.Sojourn.P50, res.Tiers[1].Critical.P50)
	}
	if res.Label != "masstree > 2*masstree" {
		t.Errorf("Label = %q", res.Label)
	}
}

// TestPipelineLiveTimeoutTeardown drives the live engine into its timeout
// path (a 1ns budget fires while work is still in flight) and checks the
// teardown contract: Run must return cleanly — either ErrTimedOut or, if
// the drain resolved every root after all, a complete result — with every
// worker goroutine exited (no send-on-closed-channel panic, no
// use-after-close on the servers RunPipeline closes right after).
func TestPipelineLiveTimeoutTeardown(t *testing.T) {
	res, err := RunPipeline(PipelineSpec{
		Mode: ModeIntegrated,
		Tiers: []TierSpec{
			{Cluster: ClusterSpec{App: "masstree", Replicas: 1, Scale: 0.05}},
			{Cluster: ClusterSpec{App: "masstree", Replicas: 2, Scale: 0.05}, FanOut: 2},
		},
		QPS: 2000, Requests: 500, Warmup: -1, Seed: 1,
		Timeout: time.Nanosecond,
	})
	if err != nil {
		if !PipelineTimedOut(err) {
			t.Fatalf("err = %v, want a pipeline timeout", err)
		}
		return
	}
	if res.Requests == 0 {
		t.Fatal("nil error but empty result")
	}
}

// TestRunPipelineValidation pins the API-boundary checks.
func TestRunPipelineValidation(t *testing.T) {
	samples := syntheticServiceSamples(20, 1)
	base := func() PipelineSpec {
		return PipelineSpec{
			Mode: ModeSimulated,
			Tiers: []TierSpec{
				{Cluster: ClusterSpec{App: "masstree", Replicas: 1, ServiceSamples: samples}},
				{Cluster: ClusterSpec{App: "masstree", Replicas: 2, ServiceSamples: samples}, FanOut: 2},
			},
			QPS: 1000, Requests: 50,
		}
	}

	cases := []struct {
		name   string
		mutate func(*PipelineSpec)
		want   string
	}{
		{"no tiers", func(s *PipelineSpec) { s.Tiers = nil }, "at least one tier"},
		{"negative requests", func(s *PipelineSpec) { s.Requests = -1 }, "must not be negative"},
		{"negative network delay", func(s *PipelineSpec) { s.NetworkDelay = -time.Microsecond }, "PipelineSpec.NetworkDelay must not be negative (got -1µs)"},
		{"negative edge delay", func(s *PipelineSpec) { s.Tiers[1].Edge = &EdgeSpec{NetworkDelay: -time.Microsecond} }, "tier 1 Edge.NetworkDelay must not be negative (got -1µs)"},
		{"tier0 fanout", func(s *PipelineSpec) { s.Tiers[0].FanOut = 4 }, "root arrival process"},
		{"tier0 hedge", func(s *PipelineSpec) { s.Tiers[0].Hedge = &HedgeSpec{Delay: time.Millisecond} }, "no inbound edge"},
		{"bad hedge delay", func(s *PipelineSpec) { s.Tiers[1].Hedge = &HedgeSpec{} }, "Hedge.Delay must be positive"},
		{"unknown app", func(s *PipelineSpec) { s.Tiers[1].Cluster.App = "nope" }, "unknown application"},
		{"unknown policy", func(s *PipelineSpec) { s.Tiers[1].Cluster.Policy = "nope" }, "unknown balancer policy"},
		{"bad slowdowns", func(s *PipelineSpec) { s.Tiers[1].Cluster.Slowdowns = []float64{1} }, "Slowdowns"},
	}
	for _, tc := range cases {
		spec := base()
		tc.mutate(&spec)
		if _, err := RunPipeline(spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}

	if _, err := RunPipeline(PipelineSpec{Mode: Mode(99), Tiers: base().Tiers}); err == nil ||
		!strings.Contains(err.Error(), "not Mode(99)") {
		t.Errorf("unknown mode: err = %v", err)
	}
	// Networked edges are a live-path feature: the virtual-time model has no
	// network stack, so a simulated run must reject them loudly rather than
	// silently dropping the network costs.
	netSpec := base()
	netSpec.Tiers[1].Edge = &EdgeSpec{Mode: ModeNetworked}
	if _, err := RunPipeline(netSpec); err == nil || !strings.Contains(err.Error(), "live-path feature") {
		t.Errorf("simulated networked edge: err = %v", err)
	}
}

// TestTierValidationMatchesCluster pins that a ClusterSpec is validated once:
// every rejection RunCluster makes, a RunPipeline whose only tier wraps the
// same spec makes with the same message (a tier prefix would be allowed).
func TestTierValidationMatchesCluster(t *testing.T) {
	base := ClusterSpec{App: "masstree", Mode: ModeSimulated, Replicas: 2, Requests: 50,
		ServiceSamples: syntheticServiceSamples(20, 1)}
	cases := []struct {
		name   string
		mutate func(*ClusterSpec)
		want   string
	}{
		{"short slowdowns", func(s *ClusterSpec) { s.Slowdowns = []float64{1} }, "must equal Replicas = 2"},
		{"short elastic slowdowns", func(s *ClusterSpec) {
			s.Autoscale = &AutoscaleSpec{Policy: "threshold", MaxReplicas: 4}
			s.Slowdowns = []float64{1, 1}
		}, "must equal the replica pool (Autoscale.MaxReplicas) = 4"},
		{"NaN slowdown", func(s *ClusterSpec) { s.Slowdowns = []float64{1, math.NaN()} }, "Slowdowns[1]"},
		{"short threads", func(s *ClusterSpec) { s.ThreadsPerReplica = []int{2} }, "len(ThreadsPerReplica) = 1"},
		{"unknown controller", func(s *ClusterSpec) { s.Autoscale = &AutoscaleSpec{Policy: "bogus"} }, "controller policy"},
		{"unknown drain policy", func(s *ClusterSpec) { s.Autoscale = &AutoscaleSpec{DrainPolicy: "bogus"} }, "drain policy"},
		{"unknown app", func(s *ClusterSpec) { s.App = "nope" }, "unknown application"},
		{"negative requests", func(s *ClusterSpec) { s.Requests = -1 }, "ClusterSpec.Requests must not be negative"},
		{"negative network delay", func(s *ClusterSpec) { s.NetworkDelay = -time.Microsecond }, "ClusterSpec.NetworkDelay must not be negative (got -1µs)"},
	}
	for _, tc := range cases {
		spec := base
		tc.mutate(&spec)
		_, cerr := RunCluster(spec)
		if cerr == nil || !strings.Contains(cerr.Error(), tc.want) {
			t.Errorf("%s: RunCluster err = %v, want substring %q", tc.name, cerr, tc.want)
			continue
		}
		_, perr := RunPipeline(PipelineSpec{Mode: ModeSimulated, Tiers: []TierSpec{{Cluster: spec}}, QPS: 1000, Requests: 50})
		if perr == nil || !strings.HasSuffix(perr.Error(), strings.TrimPrefix(cerr.Error(), "tailbench: ")) {
			t.Errorf("%s: RunPipeline err = %v, want RunCluster's %q", tc.name, perr, cerr)
		}
	}
}
