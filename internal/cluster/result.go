package cluster

import (
	"fmt"
	"time"

	"tailbench/internal/stats"
	"tailbench/internal/trace"
)

// ReplicaStats is the per-replica breakdown of a cluster run: one row per
// member the replica set ever provisioned, including replicas that were
// drained and retired mid-run. The public tailbench.ReplicaResult is this
// type, so the field order and tags are the saved-JSON schema.
type ReplicaStats struct {
	// Index is the replica's stable ID (assigned in provisioning order,
	// never reused within a run).
	Index int
	// Slot is the pool slot that backed the replica (a live server or a
	// simulated replica spec); slots are reused after retirement.
	Slot int
	// State is the replica's lifecycle state at the end of the run
	// ("active", "draining", or "retired").
	State string
	// ProvisionedAt and RetiredAt bound the replica's lifetime as offsets
	// from the start of the run; RetiredAt is zero for replicas still
	// provisioned when the run ended. Lifetime is the provisioned span
	// (through the end of the run for non-retired replicas). ActiveAt is
	// the instant the replica became routable — later than ProvisionedAt
	// exactly when a cold-start ProvisionDelay was configured.
	ProvisionedAt time.Duration
	ActiveAt      time.Duration `json:",omitempty"`
	RetiredAt     time.Duration `json:",omitempty"`
	Lifetime      time.Duration
	// Threads is the replica's worker thread count — per-slot in
	// heterogeneous clusters (see Config.ThreadsPer), else the homogeneous
	// count.
	Threads int `json:",omitempty"`
	// Slowdown is the service-time inflation factor the replica ran with
	// (1.0 = nominal speed).
	Slowdown float64
	// Dispatched counts every request routed to this replica, including
	// warmup and failed requests.
	Dispatched uint64
	// Requests counts the measured (post-warmup, non-error) requests.
	Requests uint64
	// Errors counts failed requests.
	Errors uint64
	// AchievedQPS is the replica's measured completion rate over the
	// cluster-wide measurement interval (per-replica rates sum to the
	// aggregate rate).
	AchievedQPS float64
	// Queue, Service, and Sojourn summarize the replica's latency components.
	Queue   stats.LatencySummary
	Service stats.LatencySummary
	Sojourn stats.LatencySummary
	// MeanQueueDepth is the mean number of outstanding requests (queued plus
	// in service) observed at this replica at the instants requests were
	// dispatched to it.
	MeanQueueDepth float64
	// MaxQueueDepth is the largest outstanding count observed at dispatch.
	MaxQueueDepth int
}

// replicaStats fills a row's lifecycle fields from the member record. end is
// the run's final instant on its time axis, closing the span of replicas
// still provisioned.
func replicaStats(m *Member, end time.Duration, row ReplicaStats) ReplicaStats {
	row.Slot = m.Slot
	row.State = m.State.String()
	row.ProvisionedAt = m.ProvisionedAt
	row.ActiveAt = m.ActiveAt
	from, to := m.span(end)
	row.Lifetime = to - from
	if m.State == StateRetired {
		row.RetiredAt = m.RetiredAt
	}
	return row
}

// Result is the outcome of one cluster measurement (live or simulated).
type Result struct {
	// App is the application name (or synthetic workload label).
	App string
	// Policy is the balancer policy the run used.
	Policy string
	// Replicas is the number of replica servers active at the start of the
	// run (and throughout it, unless an autoscaling controller changed the
	// membership — see Controller, PeakReplicas, and ScalingEvents).
	Replicas int
	// Threads is the number of worker threads per replica. ThreadsPer is
	// the per-slot override of a heterogeneous cluster (empty when every
	// replica runs Threads workers).
	Threads    int
	ThreadsPer []int `json:",omitempty"`
	// OfferedQPS is the configured cluster-wide arrival rate — for
	// time-varying load shapes, the mean rate over the run's horizon.
	OfferedQPS float64
	// Shape names the arrival process family and ShapeSpec carries its
	// canonical parameter encoding (see load.Parse).
	Shape     string
	ShapeSpec string
	// AchievedQPS is the measured cluster-wide completion rate.
	AchievedQPS float64
	// Requests, Warmups, and Errors count measured, discarded, and failed
	// requests across the whole cluster.
	Requests uint64
	Warmups  uint64
	Errors   uint64
	// Queue, Service, and Sojourn summarize cluster-wide latency. Sojourn is
	// measured from each request's scheduled arrival instant, so balancer
	// and dispatcher lag count as latency (the open-loop methodology).
	Queue   stats.LatencySummary
	Service stats.LatencySummary
	Sojourn stats.LatencySummary
	// ServiceCDF and SojournCDF are cluster-wide distributions.
	ServiceCDF []stats.CDFPoint
	SojournCDF []stats.CDFPoint
	// ServiceSamples and SojournSamples carry raw samples when KeepRaw was
	// set.
	ServiceSamples []time.Duration
	SojournSamples []time.Duration
	// Windows is the time-windowed latency series (offered/achieved QPS
	// and sojourn percentiles per window, plus the mean provisioned replica
	// count when the run was elastic); present when windowed accounting is
	// enabled.
	Windows []stats.WindowStat
	// Elapsed is the measurement interval: wall-clock for live runs,
	// virtual time for simulated runs.
	Elapsed time.Duration

	// Controller is the autoscaling policy that drove the run ("" for a
	// fixed cluster), with MinReplicas/MaxReplicas its clamp bounds and
	// ControlInterval its tick period.
	Controller      string
	MinReplicas     int
	MaxReplicas     int
	ControlInterval time.Duration
	// PeakReplicas is the largest number of simultaneously provisioned
	// replicas; ReplicaSeconds integrates the provisioned count over the
	// run — the provisioning cost an SLO was (or was not) met at.
	PeakReplicas   int
	ReplicaSeconds float64
	// ScalingEvents is the controller's decision timeline (only decisions
	// that changed the active count are recorded).
	ScalingEvents []ScalingEvent

	// EventsSimulated counts the engine dispatches the run performed, warmup
	// included (simulated path only; zero for live runs). Aborted reports
	// that the run stopped early through SimConfig.StopWhen — the result
	// then covers exactly the simulated prefix.
	EventsSimulated int64
	Aborted         bool

	// PerReplica is the per-replica breakdown, one row per member ever
	// provisioned, indexed by stable replica ID.
	PerReplica []ReplicaStats

	// Trace is the tail-attribution report (slowest span trees per window,
	// p99 decomposition); present when the run was traced.
	Trace *trace.Report `json:",omitempty"`
}

// annotateElastic fills a result's elasticity fields from the replica set's
// ledger. Fixed runs (nil loop) get the cost metrics too (ReplicaSeconds of
// a static cluster is simply N times the run length, the baseline autoscaled
// runs are judged against), but no controller fields.
func annotateElastic(out *Result, loop *ControlLoop, set *ReplicaSet, end time.Duration) {
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

// String renders a one-line summary.
func (r *Result) String() string {
	elastic := ""
	if r.Controller != "" {
		elastic = fmt.Sprintf(" ctrl=%s peak=%d", r.Controller, r.PeakReplicas)
	}
	return fmt.Sprintf("%s [cluster %s x%d]%s threads=%d qps=%.1f achieved=%.1f n=%d err=%d sojourn{%s}",
		r.App, r.Policy, r.Replicas, elastic, r.Threads, r.OfferedQPS, r.AchievedQPS,
		r.Requests, r.Errors, r.Sojourn.String())
}

// DepthAccum tracks queue-depth observations at dispatch instants, the same
// way on the live fleet and the virtual-time engine.
type DepthAccum struct {
	sum int64
	n   int64
	max int
}

// Observe records the outstanding count seen at one dispatch.
func (d *DepthAccum) Observe(depth int) {
	d.sum += int64(depth)
	d.n++
	if depth > d.max {
		d.max = depth
	}
}

// Mean returns the mean observed depth (0 with no observations).
func (d *DepthAccum) Mean() float64 {
	if d.n == 0 {
		return 0
	}
	return float64(d.sum) / float64(d.n)
}

// Max returns the largest observed depth.
func (d *DepthAccum) Max() int { return d.max }
