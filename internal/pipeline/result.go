package pipeline

import (
	"fmt"
	"time"

	"tailbench/internal/cluster"
	"tailbench/internal/stats"
	"tailbench/internal/trace"
)

// TierResult is the per-tier breakdown of a pipeline run: the tier's own
// cluster accounting (latency components of the sub-requests it served,
// windowed series, per-replica rows, elasticity ledger) plus the inbound
// edge's fan-out/hedging ledger and the fan-in straggler view. The public
// tailbench.TierResult is this type, so the field order and tags are the
// saved-JSON schema.
type TierResult struct {
	// Name, App, Policy, Replicas, and Threads identify the tier.
	Name     string
	App      string
	Policy   string
	Replicas int
	Threads  int
	// ThreadsPer is the per-slot worker thread assignment of a heterogeneous
	// live tier; empty when every replica runs Threads workers.
	ThreadsPer []int `json:",omitempty"`
	// FanOut is the inbound edge's fan-out degree (1 for tier 0).
	FanOut int
	// Transport names the edge's transport on the live path ("inprocess",
	// "loopback", "networked"); empty on the virtual-time path, which
	// models no network stack. NetworkDelay is the networked edge's one-way
	// synthetic delay.
	Transport    string        `json:",omitempty"`
	NetworkDelay time.Duration `json:",omitempty"`
	// HedgeDelay is the inbound edge's hedging budget (0 = no hedging);
	// HedgesIssued counts duplicated sub-requests and HedgeWins how many of
	// those duplicates beat their original (first-response-wins).
	HedgeDelay   time.Duration `json:",omitempty"`
	HedgesIssued uint64        `json:",omitempty"`
	HedgeWins    uint64        `json:",omitempty"`
	// OfferedQPS is the tier's nominal sub-request arrival rate: the root
	// rate times the fan-out multiplier up the chain (hedge duplicates are
	// extra, unplanned load and are not included).
	OfferedQPS float64
	// Requests counts measured sub-requests (one per logical sub-request;
	// hedge duplicates resolve into their original); Errors counts failed
	// ones.
	Requests uint64
	Errors   uint64
	// Queue, Service, and Sojourn summarize the tier-local latency of the
	// measured sub-requests (dispatch into the tier until first completed
	// copy).
	Queue   stats.LatencySummary
	Service stats.LatencySummary
	Sojourn stats.LatencySummary
	// Critical summarizes, per measured root request, the slowest of the
	// root's sub-requests at this tier — the fan-in straggler that actually
	// gated the root. Critical.P99 against Sojourn.P99 is the
	// tail-amplification factor of the edge's fan-out degree.
	Critical stats.LatencySummary
	// Windows is the tier's windowed series, binned by sub-request dispatch
	// offset; present when windowed accounting is enabled.
	Windows []stats.WindowStat `json:",omitempty"`
	// Controller fields and the cost ledger mirror cluster.Result.
	Controller      string        `json:",omitempty"`
	MinReplicas     int           `json:",omitempty"`
	MaxReplicas     int           `json:",omitempty"`
	ControlInterval time.Duration `json:",omitempty"`
	PeakReplicas    int
	ReplicaSeconds  float64
	ScalingEvents   []cluster.ScalingEvent `json:",omitempty"`
	// PerReplica is the tier's per-replica breakdown, indexed by stable
	// replica ID.
	PerReplica []cluster.ReplicaStats
}

// Result is the outcome of one pipeline measurement (live or simulated).
type Result struct {
	// Label names the topology, e.g. "xapian > 16*masstree".
	Label string
	// Shape names the root arrival process and ShapeSpec its canonical
	// parameter encoding.
	Shape     string
	ShapeSpec string
	// OfferedQPS is the configured root arrival rate (mean over the horizon
	// for time-varying shapes); AchievedQPS the measured root completion
	// rate.
	OfferedQPS  float64
	AchievedQPS float64
	// Requests, Warmups, and Errors count measured, discarded, and failed
	// root requests.
	Requests uint64
	Warmups  uint64
	Errors   uint64
	// Sojourn summarizes the end-to-end root sojourn: from the root's
	// scheduled arrival instant until its whole fan-out tree completed.
	Sojourn    stats.LatencySummary
	SojournCDF []stats.CDFPoint
	// SojournSamples carries the raw end-to-end samples when KeepRaw was
	// set, in root arrival order.
	SojournSamples []time.Duration
	// Windows is the end-to-end windowed series, binned by root arrival
	// offset.
	Windows []stats.WindowStat
	// Elapsed is the measurement interval (first measured root arrival to
	// last completion) on the run's time axis.
	Elapsed time.Duration
	// EventsSimulated counts engine dispatches across every tier, warmup and
	// hedge duplicates included (simulated path only; zero for live runs).
	// Aborted reports the run stopped early through Config.StopWhen — the
	// result then covers exactly the resolved prefix.
	EventsSimulated int64
	Aborted         bool
	// Tiers is the per-tier breakdown, front-end first.
	Tiers []TierResult
	// Trace is the tail-attribution report when tracing was enabled: windowed
	// latency decomposition (queueing / service / network / straggler / hedge)
	// and the slowest retained span trees.
	Trace *trace.Report `json:",omitempty"`
}

// label renders the topology label from the tier chain.
func label(tiers []TierConfig) string {
	out := ""
	for i, t := range tiers {
		if i > 0 {
			out += " > "
		}
		if t.FanOut > 1 {
			out += fmt.Sprintf("%d*", t.FanOut)
		}
		out += t.App
	}
	return out
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s [pipeline %d tiers] qps=%.1f achieved=%.1f n=%d err=%d sojourn{%s}",
		r.Label, len(r.Tiers), r.OfferedQPS, r.AchievedQPS, r.Requests, r.Errors, r.Sojourn.String())
}

// annotateTier fills a tier result's elasticity fields from its membership
// ledger and control loop.
func annotateTier(out *TierResult, loop *cluster.ControlLoop, set *cluster.ReplicaSet, end time.Duration) {
	out.PeakReplicas = set.Peak()
	out.ReplicaSeconds = set.ReplicaSeconds(end)
	out.ScalingEvents = set.Events()
	set.AnnotateWindows(out.Windows, end)
	if loop != nil {
		cfg := loop.Config()
		out.Controller = cfg.Policy
		out.MinReplicas = cfg.MinReplicas
		out.MaxReplicas = cfg.MaxReplicas
		out.ControlInterval = cfg.Interval
	}
}
