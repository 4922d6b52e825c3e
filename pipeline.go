package tailbench

import (
	"errors"
	"fmt"
	"io"
	"time"

	"tailbench/internal/app"
	"tailbench/internal/cluster"
	"tailbench/internal/pipeline"
)

// HedgeSpec is a per-edge hedging (request duplication) policy: a
// sub-request that has not completed within Delay of its dispatch is
// duplicated onto another replica of the same tier and the first response
// wins. The loser still runs to completion and consumes capacity — hedging
// buys tail latency with extra load, which is exactly the trade-off the
// pipeline harness lets you measure.
type HedgeSpec struct {
	// Delay is the hedging budget; a common choice is the tier's p95
	// sub-request sojourn ("hedge after the request is already slower than
	// 95% of its peers"). Must be positive.
	Delay time.Duration
	// RTTFloor anchors the budget on the edge's round-trip floor: the
	// effective delay becomes Delay plus the edge's synthetic RTT plus the
	// smallest wire time observed on any completed copy, so a networked
	// edge never hedges inside time the network costs every request — a
	// constant budget tuned for an in-process edge fires uselessly early
	// once an RTT sits under it. Live path only; the simulated path has no
	// wire time and charges no synthetic RTT, so there the budget stays
	// Delay as configured. CLI spec: "rtt-floor+<duration>".
	RTTFloor bool
}

// EdgeSpec selects the transport of one tier's inbound edge, overriding the
// pipeline-wide default set by PipelineSpec.Mode. An edge's transport
// decides how sub-requests reach the tier's replicas on the live path:
// ModeIntegrated hands them to per-replica worker pools in-process,
// ModeLoopback puts each replica behind its own NetServer with the edge's
// balancer staying client-side, and ModeNetworked additionally charges the
// synthetic one-way NetworkDelay per hop — each sub-request's tier-local
// sojourn gains one RTT and a root's end-to-end sojourn accumulates the RTTs
// along its critical path, while hedge budgets and fan-out timing run on the
// real clock (which already includes the true loopback wire time).
type EdgeSpec struct {
	// Mode is the edge's transport: ModeIntegrated, ModeLoopback, or
	// ModeNetworked.
	Mode Mode
	// NetworkDelay is the one-way synthetic delay of a ModeNetworked edge
	// (default 25µs).
	NetworkDelay time.Duration
}

// TierSpec describes one tier of a pipeline: the cluster serving it plus
// the inbound edge from the previous tier.
type TierSpec struct {
	// Name labels the tier in results (default "tier<i>").
	Name string
	// Cluster describes the tier's cluster, reusing ClusterSpec. The
	// honored fields are App, Policy, Replicas, Threads, Scale, Slowdowns,
	// Autoscale, QueueCap, Validate, CalibrationRequests, and
	// ServiceSamples; the run-level fields (Mode, QPS, Load, Window,
	// Requests, Warmup, Seed, KeepRaw) come from the PipelineSpec, which
	// drives every tier.
	Cluster ClusterSpec
	// FanOut is the number of sub-requests a request completing at the
	// previous tier spawns into this tier (default 1). The parent request
	// completes only when all of them have — fan-in waits for the slowest,
	// so end-to-end tail latency inherits the max of FanOut sojourns (the
	// "tail at scale" amplification). Must be 1 (or 0) on tier 0, which is
	// fed by the root arrival process.
	FanOut int
	// Hedge optionally hedges the inbound edge's sub-requests; nil disables
	// hedging. Must be nil on tier 0.
	Hedge *HedgeSpec
	// Edge overrides the inbound edge's transport (see EdgeSpec); nil
	// inherits the pipeline-wide default implied by PipelineSpec.Mode. Tier
	// 0's edge is the root dispatcher's hop into the front-end tier, so it
	// may carry a transport (unlike FanOut/Hedge, which require a previous
	// tier). Only meaningful on the live path: a simulated run rejects
	// networked edges, since the virtual-time model has no network stack.
	Edge *EdgeSpec
}

// PipelineSpec describes one multi-tier measurement: a chain of clusters in
// which a root request traverses every tier via fan-out/fan-in edges, and
// the recorded sojourn of a root is its end-to-end span across tiers.
type PipelineSpec struct {
	// Mode selects the execution path and the default edge transport:
	// ModeIntegrated (real replica servers per tier, in-process dispatch),
	// ModeLoopback (live, every tier's replicas behind their own NetServers
	// with client-side balancing), ModeNetworked (loopback plus the
	// synthetic per-hop NIC/switch delay), or ModeSimulated (calibrated
	// virtual-time simulation — deterministic per seed, in-process edges
	// only). Individual edges override the live default via TierSpec.Edge.
	Mode Mode
	// Tiers is the chain, front-end first. At least one tier is required.
	Tiers []TierSpec
	// QPS is the root arrival rate; 0 means saturation. Shorthand for
	// Load: Constant(QPS); ignored when Load is set.
	QPS float64
	// Load is the root arrival process; nil means Constant(QPS).
	Load LoadShape
	// Window is the windowed-accounting width (zero = automatic for
	// time-varying shapes, negative = disabled).
	Window time.Duration
	// Requests is the number of measured root requests (default 1000).
	Requests int
	// Warmup is the number of discarded warmup roots (0 = 10% of Requests,
	// negative = none), together with their entire fan-out trees.
	Warmup int
	// NetworkDelay is the default one-way synthetic delay of networked
	// edges (default 25µs); TierSpec.Edge overrides it per edge. Ignored
	// unless an edge is networked.
	NetworkDelay time.Duration
	// Seed makes the run reproducible (default 1).
	Seed int64
	// KeepRaw retains every end-to-end sojourn sample in the result.
	KeepRaw bool
	// Timeout bounds an integrated (live) run; zero derives one from the
	// arrival horizon plus per-tier drain slack. A run that overruns it
	// drains its in-flight work, then fails with an error satisfying
	// PipelineTimedOut (unless the drain completed the run after all).
	Timeout time.Duration
	// Trace enables request-level tracing and tail attribution: each
	// measured root records its full fan-out/fan-in/hedge span tree, and the
	// report decomposes the retained tails into queueing, service, network,
	// straggler, and hedge components (see TraceSpec). Nil keeps tracing off
	// and the dispatch hot paths allocation-free.
	Trace *TraceSpec
	// Metrics, when non-nil, receives live per-tier counters and latency
	// histograms as the run progresses (live modes only); results are
	// identical with or without it.
	Metrics *MetricsRegistry
}

// TierResult is the per-tier breakdown of a pipeline run: the tier's own
// cluster accounting (tier-local sub-request latency, windowed series,
// per-replica rows, provisioning cost ledger) plus the inbound edge's
// transport, fan-out and hedging ledger, and the Critical summary of the
// straggler that gated each root. It is the engines' own tier type; see its
// fields for details.
type TierResult = pipeline.TierResult

// PipelineResult is the outcome of a pipeline measurement.
type PipelineResult struct {
	// Label names the topology, e.g. "xapian > 16*masstree".
	Label string
	Mode  Mode
	// Shape names the root arrival process and ShapeSpec its canonical
	// parameter encoding, re-parseable with ParseLoadShape.
	Shape     string `json:",omitempty"`
	ShapeSpec string `json:",omitempty"`
	// OfferedQPS is the configured root arrival rate; AchievedQPS the
	// measured root completion rate.
	OfferedQPS  float64
	AchievedQPS float64
	// Requests and Errors count measured and failed root requests.
	Requests uint64
	Errors   uint64
	// Sojourn summarizes end-to-end root latency: from the root's scheduled
	// arrival until its whole fan-out tree completed.
	Sojourn    LatencyStats
	SojournCDF []CDFPoint
	// SojournSamples is present when KeepRaw was set (root arrival order).
	SojournSamples []time.Duration `json:",omitempty"`
	// Windows is the end-to-end windowed series, binned by root arrival
	// offset.
	Windows []WindowStats `json:",omitempty"`
	Elapsed time.Duration
	// Tiers is the per-tier breakdown, front-end first.
	Tiers []TierResult
	// Trace is the tail-attribution report when tracing was enabled — for
	// fan-out pipelines the place the straggler (max-of-k) component of the
	// end-to-end tail becomes visible.
	Trace *TraceReport `json:",omitempty"`
}

// String renders a one-line summary.
func (r *PipelineResult) String() string {
	return fmt.Sprintf("%s [pipeline %d tiers, %s] qps=%.1f p95=%v p99=%v n=%d err=%d",
		r.Label, len(r.Tiers), r.Mode, r.OfferedQPS,
		r.Sojourn.P95.Round(time.Microsecond), r.Sojourn.P99.Round(time.Microsecond),
		r.Requests, r.Errors)
}

// WriteTierTable renders the per-tier breakdown as an aligned text table
// (one row per tier: fan-out, offered load, tier-local and critical-path
// tails, hedging ledger). The tailbench CLI has one view of a pipeline
// result, with this table in it, for a live run and for one replayed by
// report -input alike.
func (r *PipelineResult) WriteTierTable(w io.Writer) {
	fmt.Fprintf(w, "%-10s %-10s %-10s %-6s %-10s %-12s %-12s %-12s %-10s %s\n",
		"tier", "app", "edge", "fanout", "offered", "p95", "p99", "crit_p99", "hedges", "hedge_wins")
	for _, t := range r.Tiers {
		hedges, wins := "-", "-"
		if t.HedgeDelay > 0 {
			hedges = fmt.Sprintf("%d", t.HedgesIssued)
			wins = fmt.Sprintf("%d", t.HedgeWins)
		}
		edge := t.Transport
		if edge == "" {
			edge = "-"
		}
		fmt.Fprintf(w, "%-10s %-10s %-10s %-6d %-10.1f %-12v %-12v %-12v %-10s %s\n",
			t.Name, t.App, edge, t.FanOut, t.OfferedQPS,
			t.Sojourn.P95.Round(time.Microsecond), t.Sojourn.P99.Round(time.Microsecond),
			t.Critical.P99.Round(time.Microsecond), hedges, wins)
	}
}

// ErrPipelineMode is returned for pipeline modes that are not supported.
type ErrPipelineMode struct{ Mode Mode }

// Error implements error.
func (e ErrPipelineMode) Error() string {
	return fmt.Sprintf("tailbench: pipeline runs support integrated, loopback, networked, and simulated modes, not %s", e.Mode)
}

// normalizePipeline validates the spec shape and resolves per-tier cluster
// defaults.
func normalizePipeline(spec PipelineSpec) (PipelineSpec, error) {
	if spec.Requests < 0 {
		return spec, fmt.Errorf("tailbench: PipelineSpec.Requests must not be negative (got %d)", spec.Requests)
	}
	if err := checkQPS("PipelineSpec", spec.QPS); err != nil {
		return spec, err
	}
	if err := checkNetworkDelay("PipelineSpec", spec.NetworkDelay); err != nil {
		return spec, err
	}
	if len(spec.Tiers) == 0 {
		return spec, fmt.Errorf("tailbench: PipelineSpec.Tiers must name at least one tier")
	}
	tiers := make([]TierSpec, len(spec.Tiers))
	copy(tiers, spec.Tiers)
	spec.Tiers = tiers
	for i := range spec.Tiers {
		t := &spec.Tiers[i]
		if i == 0 {
			if t.FanOut > 1 {
				return spec, fmt.Errorf("tailbench: tier 0 is fed by the root arrival process and cannot have FanOut %d", t.FanOut)
			}
			if t.Hedge != nil {
				return spec, fmt.Errorf("tailbench: tier 0 has no inbound edge to hedge")
			}
		}
		if t.FanOut < 0 {
			return spec, fmt.Errorf("tailbench: tier %d FanOut must not be negative (got %d)", i, t.FanOut)
		}
		if t.Hedge != nil && t.Hedge.Delay <= 0 {
			return spec, fmt.Errorf("tailbench: tier %d Hedge.Delay must be positive (got %v)", i, t.Hedge.Delay)
		}
		if t.Edge != nil {
			if _, ok := transportForMode(t.Edge.Mode); !ok {
				return spec, fmt.Errorf("tailbench: tier %d Edge.Mode must be integrated, loopback, or networked (got %s)", i, t.Edge.Mode)
			}
			if err := checkNetworkDelay(fmt.Sprintf("tier %d Edge", i), t.Edge.NetworkDelay); err != nil {
				return spec, err
			}
			if spec.Mode == ModeSimulated && t.Edge.Mode != ModeIntegrated {
				return spec, fmt.Errorf("tailbench: tier %d: %s tier edges are a live-path feature; the virtual-time model has no network stack", i, t.Edge.Mode)
			}
		}
		t.Cluster.Seed = spec.Seed
		t.Cluster = t.Cluster.normalize()
		if err := t.Cluster.validate(); err != nil {
			return spec, err
		}
	}
	return spec, nil
}

// transportForMode maps a live execution mode to the internal transport kind
// name it implies (the default for every edge of a pipeline run, and the
// cluster dispatch path). Reports false for modes that are not transports
// (simulated, unknown).
func transportForMode(m Mode) (string, bool) {
	switch m {
	case ModeIntegrated:
		return cluster.TransportInProcess, true
	case ModeLoopback:
		return cluster.TransportLoopback, true
	case ModeNetworked:
		return cluster.TransportNetworked, true
	default:
		return "", false
	}
}

// tierConfig builds the internal tier configuration shared by both paths.
// defaultTransport and defaultDelay are the pipeline-wide edge transport and
// networked-edge delay implied by the run mode, which TierSpec.Edge
// overrides.
func (t TierSpec) tierConfig(defaultTransport string, defaultDelay time.Duration) pipeline.TierConfig {
	cs := t.Cluster
	hedge := time.Duration(0)
	hedgeRTTFloor := false
	if t.Hedge != nil {
		hedge = t.Hedge.Delay
		hedgeRTTFloor = t.Hedge.RTTFloor
	}
	transport := defaultTransport
	netDelay := defaultDelay
	if t.Edge != nil {
		transport, _ = transportForMode(t.Edge.Mode)
		if t.Edge.NetworkDelay > 0 {
			netDelay = t.Edge.NetworkDelay
		}
	}
	return pipeline.TierConfig{
		Name:          t.Name,
		App:           cs.App,
		Policy:        cs.Policy,
		Threads:       cs.Threads,
		ThreadsPer:    cs.ThreadsPerReplica,
		Replicas:      cs.Replicas,
		FanOut:        t.FanOut,
		HedgeDelay:    hedge,
		HedgeRTTFloor: hedgeRTTFloor,
		Autoscale:     cs.Autoscale,
		Transport:     transport,
		NetDelay:      netDelay,
	}
}

// RunPipeline executes one multi-tier measurement according to the spec.
func RunPipeline(spec PipelineSpec) (*PipelineResult, error) {
	spec, err := normalizePipeline(spec)
	if err != nil {
		return nil, err
	}
	cfg := pipeline.Config{
		QPS:            spec.QPS,
		Load:           spec.Load,
		Window:         spec.Window,
		Requests:       spec.Requests,
		WarmupRequests: spec.Warmup,
		Seed:           spec.Seed,
		KeepRaw:        spec.KeepRaw,
		Timeout:        spec.Timeout,
		Trace:          spec.Trace.recorder(),
		Metrics:        spec.Metrics,
	}
	switch spec.Mode {
	case ModeSimulated:
		return runPipelineSimulated(spec, cfg)
	case ModeIntegrated, ModeLoopback, ModeNetworked:
		transport, _ := transportForMode(spec.Mode)
		return runPipelineLive(spec, cfg, transport)
	default:
		return nil, ErrPipelineMode{Mode: spec.Mode}
	}
}

// runPipelineSimulated calibrates each tier's service-time distribution
// (once per distinct application/scale, unless the tier supplies
// ServiceSamples) and runs the virtual-time engine.
func runPipelineSimulated(spec PipelineSpec, cfg pipeline.Config) (*PipelineResult, error) {
	type calKey struct {
		app      string
		scale    float64
		requests int
	}
	calibrated := map[calKey][]time.Duration{}
	for _, t := range spec.Tiers {
		cs := t.Cluster
		samples := cs.ServiceSamples
		if len(samples) == 0 {
			key := calKey{app: cs.App, scale: cs.Scale, requests: cs.CalibrationRequests}
			if samples = calibrated[key]; samples == nil {
				var err error
				if samples, err = calibrate(cs.App, cs.Scale, cs.Seed, cs.CalibrationRequests); err != nil {
					return nil, err
				}
				calibrated[key] = samples
			}
		}
		tc := t.tierConfig(cluster.TransportInProcess, 0)
		tc.SimReplicas = cs.simReplicas(samples)
		cfg.Tiers = append(cfg.Tiers, tc)
	}
	res, err := pipeline.Simulate(cfg)
	if err != nil {
		return nil, err
	}
	return fromPipelineResult(spec, res), nil
}

// runPipelineLive builds every tier's real replica server pool and drives
// the live goroutine engine; defaultTransport is the edge transport implied
// by the run mode, overridden per tier by TierSpec.Edge.
func runPipelineLive(spec PipelineSpec, cfg pipeline.Config, defaultTransport string) (*PipelineResult, error) {
	var servers []app.Server
	defer func() { closeServers(servers) }()
	for _, t := range spec.Tiers {
		cs := t.Cluster
		pool, newClient, err := cs.buildServers()
		if err != nil {
			return nil, err
		}
		servers = append(servers, pool...)
		tc := t.tierConfig(defaultTransport, spec.NetworkDelay)
		tc.Servers = pool
		tc.NewClient = newClient
		tc.Validate = cs.Validate
		tc.QueueCap = cs.QueueCap
		tc.Slowdowns = cs.Slowdowns
		cfg.Tiers = append(cfg.Tiers, tc)
	}
	res, err := pipeline.Run(cfg)
	if err != nil {
		return nil, err
	}
	return fromPipelineResult(spec, res), nil
}

// fromPipelineResult labels the engine's result with the run mode. The
// result blocks are the engines' own types, so this is plain assignment.
func fromPipelineResult(spec PipelineSpec, res *pipeline.Result) *PipelineResult {
	return &PipelineResult{
		Label:          res.Label,
		Mode:           spec.Mode,
		Shape:          res.Shape,
		ShapeSpec:      res.ShapeSpec,
		OfferedQPS:     res.OfferedQPS,
		AchievedQPS:    res.AchievedQPS,
		Requests:       res.Requests,
		Errors:         res.Errors,
		Sojourn:        res.Sojourn,
		SojournCDF:     res.SojournCDF,
		SojournSamples: res.SojournSamples,
		Windows:        res.Windows,
		Elapsed:        res.Elapsed,
		Tiers:          res.Tiers,
		Trace:          res.Trace,
	}
}

// PipelineTimedOut reports whether an integrated pipeline run failed
// because not every root request completed within the timeout.
func PipelineTimedOut(err error) bool { return errors.Is(err, pipeline.ErrTimedOut) }
