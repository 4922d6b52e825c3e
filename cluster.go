package tailbench

import (
	"fmt"
	"io"
	"math"
	"time"

	"tailbench/internal/app"
	"tailbench/internal/cluster"
	"tailbench/internal/core"
)

// BalancerPolicies returns the names of the built-in load-balancing
// policies: random, roundrobin, leastq (join the shortest queue), and jsq2
// (power-of-two-choices).
func BalancerPolicies() []string { return cluster.Policies() }

// ControllerPolicies returns the names of the built-in autoscaling
// controller policies: static (hold the initial count), threshold
// (queue-depth hysteresis), and target-p95 (windowed tail-latency goal).
func ControllerPolicies() []string { return cluster.Controllers() }

// DrainPolicies returns the names of the built-in scale-down drain
// policies: youngest (retire the most recently provisioned replica first,
// the default), oldest (rolling refresh: retire the longest-lived replica
// first), and least-loaded (retire the replica with the fewest outstanding
// requests — the one that finishes its backlog and frees its slot soonest).
func DrainPolicies() []string { return cluster.DrainPolicies() }

// AutoscaleSpec enables and parameterizes the replica autoscaling
// controller of a cluster run (the engines' own configuration type; see its
// fields for the knobs and their defaults). Each control interval the
// controller observes per-replica queue depth and the interval's p95 sojourn
// and returns a target active replica count; the harness provisions new
// replicas or drains existing ones (a draining replica finishes the work it
// has accepted, then retires) to move toward it. The control loop is driven
// identically in wall-clock time (live modes) and virtual time (simulated
// mode), so controllers tuned in fast deterministic simulation transfer
// unchanged to live runs. On a ClusterSpec, MaxReplicas defaults to twice
// the initial Replicas (and is never below it); it is also the provisioned
// server pool size of a live run — replicas beyond the initial count are
// pre-built warm standbys, so mid-run provisioning does not perturb dispatch
// timing.
type AutoscaleSpec = cluster.AutoscaleConfig

// ClusterSpec describes one multi-replica measurement: N replica servers of
// the same application behind a load balancer, driven by the same open-loop
// methodology as single-server runs (sojourn time measured from scheduled
// arrival instants).
type ClusterSpec struct {
	// App is the application name (see Apps).
	App string
	// Mode selects the execution path. ModeIntegrated (the default) runs N
	// real in-process replica servers dispatched to by direct queue
	// handoff. ModeLoopback puts each replica behind its own NetServer on
	// the loopback device, with the balancer staying client-side in the
	// dispatcher, which issues requests over per-replica connection pools —
	// the policy comparison then includes network-stack costs.
	// ModeNetworked additionally charges the synthetic one-way NIC/switch
	// delay (NetworkDelay) on each hop, standing in for a multi-machine
	// deployment. ModeSimulated calibrates the application's service-time
	// distribution once and then runs a deterministic virtual-time
	// simulation of the cluster — orders of magnitude faster, and exactly
	// reproducible given the seed.
	Mode Mode
	// Policy is the balancer policy (see BalancerPolicies; default leastq).
	Policy string
	// Replicas is the number of replica servers (default 2).
	Replicas int
	// Threads is the number of worker threads per replica (default 1).
	Threads int
	// ThreadsPerReplica optionally assigns each replica pool slot its own
	// worker thread count for heterogeneous-cluster studies (e.g. two big
	// 4-thread replicas and two small 1-thread ones). Empty means every
	// replica runs Threads workers; otherwise its length must equal the
	// replica pool size (Replicas, or Autoscale.MaxReplicas when elastic)
	// and non-positive entries fall back to Threads. Honored by every mode:
	// live replicas size their worker pools (and net-mode connection pools)
	// per slot, and the simulated path gives each replica model the slot's
	// thread count.
	ThreadsPerReplica []int
	// QPS is the cluster-wide offered load; 0 means saturation. Shorthand
	// for Load: Constant(QPS); ignored when Load is set.
	QPS float64
	// Load is the cluster-wide arrival process: any built-in shape
	// (Constant, Diurnal, Ramp, Spike, Burst, Trace) or a custom
	// LoadShape. Nil means Constant(QPS).
	Load LoadShape
	// Window is the width of the time-windowed latency accounting in the
	// result. Zero enables windows automatically when Load is
	// time-varying; a negative value disables them entirely.
	Window time.Duration
	// Requests is the number of measured requests (default 1000).
	Requests int
	// Warmup is the number of discarded warmup requests. Zero means the
	// default of 10% of Requests; a negative value means no warmup at all
	// (the explicit-zero spelling, since 0 is taken by the default).
	Warmup int
	// Scale shrinks or grows the application dataset (default 1.0).
	Scale float64
	// Seed makes the run reproducible (default 1).
	Seed int64
	// KeepRaw retains every cluster-wide latency sample in the result.
	KeepRaw bool
	// Validate makes the harness check every response (every live mode:
	// the in-process and the net transports both check).
	Validate bool
	// Slowdowns optionally assigns each replica a service-time inflation
	// factor for straggler studies; empty means all replicas run at nominal
	// speed, otherwise its length must equal Replicas — or, when Autoscale
	// is set, the replica pool size (Autoscale.MaxReplicas), since a
	// replica provisioned mid-run inherits the factor of the pool slot
	// backing it.
	Slowdowns []float64
	// Autoscale enables the replica autoscaling controller; nil keeps the
	// membership fixed at Replicas for the whole run. With Autoscale set,
	// Replicas is the initial active count.
	Autoscale *AutoscaleSpec
	// QueueCap bounds each replica's request queue (integrated mode;
	// default 4096).
	QueueCap int
	// NetworkDelay is the synthetic one-way NIC+switch delay of
	// ModeNetworked, charged on both directions of every hop (default
	// 25µs, the paper's measured per-end overhead). Ignored by the other
	// modes.
	NetworkDelay time.Duration
	// CalibrationRequests sets how many requests calibrate the simulated
	// path's service-time distribution (simulated mode; default 300).
	CalibrationRequests int
	// ServiceSamples optionally supplies pre-measured service times for the
	// simulated mode, skipping calibration. Sweeps use this to calibrate an
	// application once and reuse the samples across many simulated points.
	ServiceSamples []time.Duration
	// Trace enables request-level tracing and tail attribution (see
	// TraceSpec); nil keeps tracing off and the dispatch hot path
	// allocation-free.
	Trace *TraceSpec
	// Metrics, when non-nil, receives live per-replica counters and latency
	// histograms as the run progresses (live modes only); results are
	// identical with or without it.
	Metrics *MetricsRegistry
}

// ReplicaResult is the per-replica breakdown of a cluster run or pipeline
// tier: one row per replica ever provisioned, including replicas drained and
// retired mid-run by the autoscaling controller. It is the engines' own row
// type; see its fields for the lifecycle offsets, counters, latency
// summaries, and dispatch-time queue-depth observations.
type ReplicaResult = cluster.ReplicaStats

// ClusterResult is the outcome of a cluster measurement.
type ClusterResult struct {
	App      string
	Mode     Mode
	Policy   string
	Replicas int
	Threads  int
	// ThreadsPer echoes the heterogeneous per-slot thread assignment when
	// one was configured.
	ThreadsPer []int `json:",omitempty"`
	// Shape names the arrival process family and ShapeSpec its canonical
	// parameter encoding, re-parseable with ParseLoadShape.
	Shape     string `json:",omitempty"`
	ShapeSpec string `json:",omitempty"`
	// OfferedQPS is the configured cluster-wide arrival rate — for
	// time-varying shapes, the mean rate over the run's horizon.
	OfferedQPS  float64
	AchievedQPS float64
	Requests    uint64
	Errors      uint64
	Queue       LatencyStats
	Service     LatencyStats
	Sojourn     LatencyStats
	ServiceCDF  []CDFPoint
	SojournCDF  []CDFPoint
	// ServiceSamples and SojournSamples are present when KeepRaw was set.
	ServiceSamples []time.Duration
	SojournSamples []time.Duration
	// Windows is the time-windowed latency series (see WindowStats);
	// present when windowed accounting is enabled — automatic for
	// time-varying load shapes, opt-in via ClusterSpec.Window otherwise.
	Windows []WindowStats `json:",omitempty"`
	Elapsed time.Duration
	// Controller names the autoscaling policy that drove the run (empty
	// for a fixed cluster), with MinReplicas/MaxReplicas its clamp bounds
	// and ControlInterval its tick period.
	Controller      string        `json:",omitempty"`
	MinReplicas     int           `json:",omitempty"`
	MaxReplicas     int           `json:",omitempty"`
	ControlInterval time.Duration `json:",omitempty"`
	// PeakReplicas is the largest number of simultaneously provisioned
	// replicas, and ReplicaSeconds integrates the provisioned replica
	// count over the run — the provisioning cost the run's SLO attainment
	// was bought at. Both are filled for fixed clusters too (where
	// ReplicaSeconds is simply Replicas times the run length), so static
	// baselines and autoscaled runs compare directly.
	PeakReplicas   int
	ReplicaSeconds float64
	// ScalingEvents is the controller's decision timeline: one entry per
	// control tick that changed the active replica count.
	ScalingEvents []ScalingEvent `json:",omitempty"`
	// PerReplica is the per-replica breakdown, indexed by stable replica
	// ID.
	PerReplica []ReplicaResult
	// Trace is the tail-attribution report when tracing was enabled.
	Trace *TraceReport `json:",omitempty"`
}

// ScalingEvent is one autoscaling decision that changed the replica count:
// at offset At, the target count (active plus cold-starting) moved From ->
// To.
type ScalingEvent = cluster.ScalingEvent

// String renders a one-line summary.
func (r *ClusterResult) String() string {
	elastic := ""
	if r.Controller != "" {
		elastic = fmt.Sprintf(" %s[%d..%d] peak=%d", r.Controller, r.MinReplicas, r.MaxReplicas, r.PeakReplicas)
	}
	return fmt.Sprintf("%s [cluster %s x%d, %s]%s threads=%d qps=%.1f p95=%v p99=%v n=%d err=%d",
		r.App, r.Policy, r.Replicas, r.Mode, elastic, r.Threads, r.OfferedQPS,
		r.Sojourn.P95.Round(time.Microsecond), r.Sojourn.P99.Round(time.Microsecond),
		r.Requests, r.Errors)
}

// WriteReplicaTable renders the per-replica breakdown as an aligned text
// table (one row per replica: slowdown, dispatch count, achieved QPS, tail
// latencies, queue depth). The tailbench CLI has one view of a cluster
// result, with this table under the aggregate rows, for a live run and for
// one replayed by report -input alike.
func (r *ClusterResult) WriteReplicaTable(w io.Writer) {
	// The thread column only appears for heterogeneous pools; homogeneous
	// runs carry the count in the aggregate header.
	hetero := len(r.ThreadsPer) > 0
	threadsHeader, pad := "", ""
	if hetero {
		threadsHeader, pad = "threads  ", "         "
	}
	fmt.Fprintf(w, "%-8s %-9s %-10s %s%-6s %-10s %-10s %-12s %-12s %-10s %s\n",
		"replica", "state", "lifetime", threadsHeader, "slow", "dispatched", "qps", "p95", "p99", "mean_depth", "max_depth")
	for _, rep := range r.PerReplica {
		threads := pad
		if hetero {
			threads = fmt.Sprintf("%-8d ", rep.Threads)
		}
		fmt.Fprintf(w, "%-8d %-9s %-10v %s%-6.2f %-10d %-10.1f %-12v %-12v %-10.2f %d\n",
			rep.Index, rep.State, rep.Lifetime.Round(time.Millisecond), threads, rep.Slowdown, rep.Dispatched, rep.AchievedQPS,
			rep.Sojourn.P95.Round(time.Microsecond), rep.Sojourn.P99.Round(time.Microsecond),
			rep.MeanQueueDepth, rep.MaxQueueDepth)
	}
}

// ErrClusterMode is returned for unknown cluster modes.
type ErrClusterMode struct{ Mode Mode }

// Error implements error.
func (e ErrClusterMode) Error() string {
	return fmt.Sprintf("tailbench: cluster runs support integrated, loopback, networked, and simulated modes, not %s", e.Mode)
}

// normalize resolves the defaults the root package itself reads: the replica
// count and dataset scale, and for an elastic spec the pool bound that sizes
// the server pool and the Slowdowns/ThreadsPerReplica vectors. Every other
// default (policy, threads, requests, warmup, seed, the controller's knobs)
// is the engines'.
func (s ClusterSpec) normalize() ClusterSpec {
	if s.Replicas <= 0 {
		s.Replicas = 2
	}
	if s.Scale <= 0 {
		s.Scale = 1.0
	}
	if s.Autoscale != nil {
		a := *s.Autoscale
		if a.MaxReplicas <= 0 {
			a.MaxReplicas = 2 * s.Replicas
		}
		if a.MaxReplicas < s.Replicas {
			a.MaxReplicas = s.Replicas
		}
		s.Autoscale = &a
	}
	return s
}

// poolSize is the number of replica slots a run provisions resources for:
// the fixed replica count, or the autoscaler's MaxReplicas.
func (s ClusterSpec) poolSize() int {
	if s.Autoscale != nil {
		return s.Autoscale.MaxReplicas
	}
	return s.Replicas
}

// ReplicaPool returns the number of replica slots the spec will provision
// resources for after defaulting: Replicas for a fixed cluster, the
// resolved Autoscale.MaxReplicas for an elastic one. Slowdowns must have
// exactly this length (when non-empty); the CLI uses it to size straggler
// vectors without duplicating the defaulting rules.
func (s ClusterSpec) ReplicaPool() int { return s.normalize().poolSize() }

// validate checks a normalized spec once, at the API boundary and before any
// (expensive) replica server is built, so RunCluster and every RunPipeline
// tier reject bad input with the same message (the CLI surfaces it
// verbatim). Slowdowns and ThreadsPerReplica must be as long as the replica
// pool; a slowdown must be a finite factor >= 0 (below 1 means nominal
// speed), while non-positive thread counts are legal and fall back to
// Threads.
func (s ClusterSpec) validate() error {
	if s.Requests < 0 {
		// Match the single-server Run: a negative request count is an error,
		// not a request for the default.
		return fmt.Errorf("tailbench: ClusterSpec.Requests must not be negative (got %d)", s.Requests)
	}
	if err := checkQPS("ClusterSpec", s.QPS); err != nil {
		return err
	}
	if err := checkNetworkDelay("ClusterSpec", s.NetworkDelay); err != nil {
		return err
	}
	if _, err := factoryFor(s.App); err != nil {
		return err
	}
	pool, bound := s.poolSize(), "Replicas"
	if s.Autoscale != nil {
		bound = "the replica pool (Autoscale.MaxReplicas)"
		// Probe the controller and drain policy names; the engines would
		// catch them too, but only after the servers are up.
		if _, err := cluster.NewControlLoop(*s.Autoscale, s.Replicas, pool); err != nil {
			return err
		}
	}
	if n := len(s.Slowdowns); n != 0 && n != pool {
		return fmt.Errorf("tailbench: len(ClusterSpec.Slowdowns) = %d, must equal %s = %d", n, bound, pool)
	}
	for r, f := range s.Slowdowns {
		if math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
			return fmt.Errorf("tailbench: ClusterSpec.Slowdowns[%d] = %v, must be a finite factor >= 0", r, f)
		}
	}
	if n := len(s.ThreadsPerReplica); n != 0 && n != pool {
		return fmt.Errorf("tailbench: len(ThreadsPerReplica) = %d, must equal %s = %d", n, bound, pool)
	}
	return nil
}

// checkNetworkDelay rejects a negative synthetic network delay on the named
// spec; zero keeps meaning "the 25µs default".
func checkNetworkDelay(spec string, d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("tailbench: %s.NetworkDelay must not be negative (got %v)", spec, d)
	}
	return nil
}

// checkQPS rejects a NaN, infinite or negative offered rate on the named
// spec; zero keeps meaning saturation.
func checkQPS(spec string, qps float64) error {
	if math.IsNaN(qps) || math.IsInf(qps, 0) || qps < 0 {
		return fmt.Errorf("tailbench: %s.QPS must be a finite rate >= 0 (got %v)", spec, qps)
	}
	return nil
}

// calibrate measures an application's uncontended service times for the
// simulated paths; requests <= 0 means the default of 300.
func calibrate(appName string, scale float64, seed int64, requests int) ([]time.Duration, error) {
	if requests <= 0 {
		requests = 300
	}
	samples, err := MeasureServiceTimes(appName, scale, seed, requests)
	if err != nil {
		return nil, fmt.Errorf("tailbench: calibrating %s: %w", appName, err)
	}
	return samples, nil
}

// simReplicas describes the replica pool for the virtual-time engines: every
// slot resamples service times from the measured distribution, inflated by
// the slot's slowdown and served by the slot's thread count.
func (s ClusterSpec) simReplicas(samples []time.Duration) []cluster.SimReplica {
	replicas := make([]cluster.SimReplica, s.poolSize())
	for r := range replicas {
		replicas[r].Service = cluster.EmpiricalService{Samples: samples}
		if r < len(s.Slowdowns) {
			replicas[r].Slowdown = s.Slowdowns[r]
		}
		if r < len(s.ThreadsPerReplica) {
			replicas[r].Threads = s.ThreadsPerReplica[r]
		}
	}
	return replicas
}

// buildServers builds the real replica server pool (the initial replicas
// plus, when autoscaling, warm standbys up to MaxReplicas) and the payload
// generator factory that goes with it; the caller closes the servers. Every
// replica serves the same dataset: server and client datasets are
// seed-derived, so replicas and the shared client must all be built from the
// same config (mirroring the single-server path) or queries would target
// data no replica holds.
func (s ClusterSpec) buildServers() ([]app.Server, core.ClientFactory, error) {
	f, err := factoryFor(s.App)
	if err != nil {
		return nil, nil, err
	}
	cfg := app.Config{Threads: s.Threads, Scale: s.Scale, Seed: s.Seed}.Normalize()
	servers := make([]app.Server, 0, s.poolSize())
	for r := 0; r < s.poolSize(); r++ {
		server, err := f.NewServer(cfg)
		if err != nil {
			closeServers(servers)
			return nil, nil, fmt.Errorf("tailbench: building %s replica %d: %w", s.App, r, err)
		}
		servers = append(servers, server)
	}
	return servers, func(seed int64) (app.Client, error) { return f.NewClient(cfg, seed) }, nil
}

func closeServers(servers []app.Server) {
	for _, s := range servers {
		s.Close()
	}
}

// RunCluster executes one cluster measurement according to the spec.
func RunCluster(spec ClusterSpec) (*ClusterResult, error) {
	spec = spec.normalize()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if spec.Mode == ModeSimulated {
		return runClusterSimulated(spec)
	}
	transport, ok := transportForMode(spec.Mode)
	if !ok {
		return nil, ErrClusterMode{Mode: spec.Mode}
	}
	return runClusterLive(spec, transport)
}

// runClusterLive drives the real replica server pool live over the given
// transport: in-process queues for the integrated mode, per-replica
// NetServers with client-side balancing for loopback/networked.
func runClusterLive(spec ClusterSpec, transport string) (*ClusterResult, error) {
	servers, newClient, err := spec.buildServers()
	if err != nil {
		return nil, err
	}
	defer closeServers(servers)
	res, err := cluster.Run(spec.App, servers, newClient, cluster.Config{
		Policy:         spec.Policy,
		Threads:        spec.Threads,
		ThreadsPer:     spec.ThreadsPerReplica,
		QueueCap:       spec.QueueCap,
		QPS:            spec.QPS,
		Load:           spec.Load,
		Window:         spec.Window,
		Requests:       spec.Requests,
		WarmupRequests: spec.Warmup,
		Seed:           spec.Seed,
		KeepRaw:        spec.KeepRaw,
		Validate:       spec.Validate,
		Slowdowns:      spec.Slowdowns,
		Replicas:       spec.Replicas,
		Autoscale:      spec.Autoscale,
		Transport:      transport,
		NetDelay:       spec.NetworkDelay,
		Trace:          spec.Trace.recorder(),
		Metrics:        spec.Metrics,
	})
	if err != nil {
		return nil, err
	}
	return fromClusterResult(spec, res), nil
}

// runClusterSimulated calibrates the application's service-time distribution
// from the real application once (unless the spec supplies ServiceSamples),
// then simulates the cluster in virtual time, resampling service times from
// the measured distribution.
func runClusterSimulated(spec ClusterSpec) (*ClusterResult, error) {
	samples := spec.ServiceSamples
	if len(samples) == 0 {
		var err error
		if samples, err = calibrate(spec.App, spec.Scale, spec.Seed, spec.CalibrationRequests); err != nil {
			return nil, err
		}
	}
	res, err := cluster.Simulate(cluster.SimConfig{
		App:             spec.App,
		Policy:          spec.Policy,
		Threads:         spec.Threads,
		QPS:             spec.QPS,
		Load:            spec.Load,
		Window:          spec.Window,
		Requests:        spec.Requests,
		WarmupRequests:  spec.Warmup,
		Seed:            spec.Seed,
		KeepRaw:         spec.KeepRaw,
		Replicas:        spec.simReplicas(samples),
		InitialReplicas: spec.Replicas,
		Autoscale:       spec.Autoscale,
		Trace:           spec.Trace.recorder(),
	})
	if err != nil {
		return nil, err
	}
	return fromClusterResult(spec, res), nil
}

// fromClusterResult labels the engine's result with the run mode. The result
// blocks are the engines' own types, so this is plain assignment.
func fromClusterResult(spec ClusterSpec, res *cluster.Result) *ClusterResult {
	return &ClusterResult{
		App:             res.App,
		Mode:            spec.Mode,
		Policy:          res.Policy,
		Replicas:        res.Replicas,
		Threads:         res.Threads,
		ThreadsPer:      res.ThreadsPer,
		Shape:           res.Shape,
		ShapeSpec:       res.ShapeSpec,
		OfferedQPS:      res.OfferedQPS,
		AchievedQPS:     res.AchievedQPS,
		Requests:        res.Requests,
		Errors:          res.Errors,
		Queue:           res.Queue,
		Service:         res.Service,
		Sojourn:         res.Sojourn,
		ServiceCDF:      res.ServiceCDF,
		SojournCDF:      res.SojournCDF,
		ServiceSamples:  res.ServiceSamples,
		SojournSamples:  res.SojournSamples,
		Windows:         res.Windows,
		Elapsed:         res.Elapsed,
		Controller:      res.Controller,
		MinReplicas:     res.MinReplicas,
		MaxReplicas:     res.MaxReplicas,
		ControlInterval: res.ControlInterval,
		PeakReplicas:    res.PeakReplicas,
		ReplicaSeconds:  res.ReplicaSeconds,
		ScalingEvents:   res.ScalingEvents,
		PerReplica:      res.PerReplica,
		Trace:           res.Trace,
	}
}
