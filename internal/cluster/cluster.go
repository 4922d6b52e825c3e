//lint:allow simtime live cluster engine: dispatch, service, and accounting run on the wall clock by design

package cluster

import (
	"errors"
	"fmt"
	"math"
	"time"

	"tailbench/internal/app"
	"tailbench/internal/core"
	"tailbench/internal/load"
	"tailbench/internal/metrics"
	"tailbench/internal/trace"
	"tailbench/internal/workload"
)

// Config parameterizes a live cluster run.
type Config struct {
	// Policy is the balancer policy name (see Policies).
	Policy string
	// Threads is the number of worker threads per replica (default 1).
	Threads int
	// ThreadsPer optionally assigns each pool slot its own worker thread
	// count (heterogeneous clusters: big and little replicas in one pool).
	// Empty means every replica runs Threads workers; otherwise its length
	// must equal the server pool size, and zero entries fall back to
	// Threads. A replica inherits the thread count of the slot backing it.
	ThreadsPer []int
	// QueueCap bounds each replica's request queue. The dispatcher blocks
	// when the chosen replica's queue is full; because sojourn time is
	// measured from the scheduled arrival instant, that backpressure shows
	// up as latency rather than silently thinning the offered load.
	// Default 4096.
	QueueCap int
	// QPS is the cluster-wide offered load; 0 means saturation. Ignored
	// when Load is set.
	QPS float64
	// Load is the cluster-wide arrival-rate profile. Nil means a
	// constant-rate profile at QPS (the scalar shorthand).
	Load load.Shape
	// Window is the windowed-accounting width; zero picks one
	// automatically for time-varying shapes, negative disables windows.
	Window time.Duration
	// Requests is the number of measured requests (default 1000).
	Requests int
	// WarmupRequests is the number of discarded warmup requests. Zero means
	// the default of 10% of Requests (matching the simulated path); a
	// negative value means no warmup at all — the explicit-zero spelling,
	// since 0 is taken by the default.
	WarmupRequests int
	// Seed drives all randomness (arrivals, request contents, balancer).
	Seed int64
	// KeepRaw retains every cluster-wide latency sample in the result.
	KeepRaw bool
	// Validate makes the harness check every response.
	Validate bool
	// Slowdowns optionally assigns each pool slot a service-time inflation
	// factor (straggler injection). Empty means all replicas run at nominal
	// speed; otherwise its length must equal the server pool size. A
	// replica inherits the factor of the slot backing it. Values below 1
	// are treated as 1.
	Slowdowns []float64
	// Timeout bounds the whole run (default derived from Requests and QPS).
	Timeout time.Duration
	// Replicas is the number of servers active when the run starts; the
	// rest of the pool stands by for the autoscaler. Zero means the whole
	// pool (the fixed-cluster behavior).
	Replicas int
	// Transport selects how dispatched requests reach replicas (see
	// Transports): "" or "inprocess" hands them to per-replica worker pools
	// over bounded in-process queues; "loopback" puts each replica behind
	// its own NetServer with the balancer staying client-side; "networked"
	// additionally charges the synthetic one-way NIC/switch delay per hop.
	// The in-process queue-capacity backpressure (QueueCap) applies only to
	// the in-process transport — over TCP, backpressure is the network's.
	Transport string
	// NetDelay is the one-way synthetic network delay of the networked
	// transport (default DefaultNetDelay). Ignored by other transports.
	NetDelay time.Duration
	// Autoscale enables the autoscaling controller: each control interval
	// it observes per-replica queue depth and the interval's p95 sojourn
	// and grows or drains the replica set. Nil keeps membership fixed.
	Autoscale *AutoscaleConfig
	// Trace, when non-nil, records a span tree per measured request and
	// retains the slowest per window (see internal/trace). Nil — the
	// default — keeps the dispatch and completion paths allocation-free.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives live counters and histograms as the
	// run progresses; reported results are identical with or without it.
	Metrics *metrics.Registry
}

// Errors returned by cluster configuration validation.
var (
	ErrNoReplicas    = errors.New("cluster: at least one replica server is required")
	ErrSlowdownsLen  = errors.New("cluster: len(Slowdowns) must equal the server pool size")
	ErrReplicaCount  = errors.New("cluster: the initial replica count must not exceed the replica pool size")
	ErrThreadsPerLen = errors.New("cluster: len(ThreadsPer) must equal the server pool size")
)

// withDefaults normalizes a Config for a pool of n servers.
func (c Config) withDefaults(pool int) Config {
	if c.Policy == "" {
		c.Policy = PolicyLeastQueue
	}
	if c.Threads <= 0 {
		c.Threads = 1
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
	if c.Replicas <= 0 {
		c.Replicas = pool
	}
	if c.Timeout <= 0 {
		total := c.Requests + c.WarmupRequests
		c.Timeout = core.DefaultTimeout(total, c.QPS)
		if horizon := load.Horizon(c.shape(), total); horizon+10*time.Second > c.Timeout {
			c.Timeout = horizon + 10*time.Second
		}
	}
	return c
}

// shape resolves the arrival profile: the explicit Load if set, else the
// constant-rate shorthand derived from QPS.
func (c Config) shape() load.Shape { return load.Or(c.Load, c.QPS) }

// windowing resolves the windowed-accounting policy, shared with the
// single-server harness (see load.WindowEnabled).
func (c Config) windowing() (width time.Duration, enabled bool) {
	return c.Window, load.WindowEnabled(c.Window, c.Load)
}

// threadsFor returns the worker thread count for pool slot idx: the slot's
// ThreadsPer entry when configured and positive, else the homogeneous
// Threads.
func (c Config) threadsFor(idx int) int {
	if idx < len(c.ThreadsPer) && c.ThreadsPer[idx] > 0 {
		return c.ThreadsPer[idx]
	}
	return c.Threads
}

// slowdownFor returns the normalized slowdown factor for pool slot idx.
// Values below 1 and non-finite values mean nominal speed.
func (c Config) slowdownFor(idx int) float64 {
	if idx >= len(c.Slowdowns) {
		return 1
	}
	s := c.Slowdowns[idx]
	if math.IsNaN(s) || math.IsInf(s, 0) || s < 1 {
		return 1
	}
	return s
}

// clusterTag is the cluster engine's per-request tag through the fleet.
type clusterTag struct {
	// scheduled is the arrival instant assigned by the traffic shaper;
	// sojourn time is measured from it, so dispatcher and balancer lag count
	// as latency.
	scheduled time.Time
	// offset is the scheduled arrival offset from the start of the run, for
	// windowed accounting.
	offset time.Duration
	warmup bool
}

// liveEngine is the run-scoped state of the live cluster path: the fleet of
// replicas plus what is the cluster engine's own — the pre-generated load,
// the single dispatcher with its deadline, and the aggregate collector.
type liveEngine struct {
	cfg      Config
	fleet    *Fleet[clusterTag]
	payloads []app.Request
	offsets  []time.Duration

	aggregate *core.Collector
	// traceRTT is the synthetic round-trip charged inside each sojourn
	// (networked transport only); the tracer carves it out of the queueing
	// residual as a net span.
	traceRTT time.Duration
	start    time.Time
}

// Run measures a cluster of live replica servers under the open-loop
// methodology: a single dispatcher issues requests at their scheduled
// arrival instants, the balancer routes each to an active replica, and each
// replica's worker pool drains its bounded queue. servers is the replica
// pool: cfg.Replicas of them are active when the run starts and the rest
// stand by as warm capacity for the autoscaling controller (with no
// autoscaler every server is active, the fixed-cluster behavior). The caller
// owns the servers (they are not closed). All replicas must serve the same
// application; appName labels the result.
func Run(appName string, servers []app.Server, newClient core.ClientFactory, cfg Config) (*Result, error) {
	eng, err := newLiveEngine(servers, newClient, cfg)
	if err != nil {
		return nil, err
	}
	return eng.run(appName)
}

// newLiveEngine validates the configuration, pre-generates the load, and
// brings the fleet up; the returned engine is serving and ready to run.
func newLiveEngine(servers []app.Server, newClient core.ClientFactory, cfg Config) (*liveEngine, error) {
	cfg = cfg.withDefaults(len(servers))
	eng := &liveEngine{cfg: cfg}
	fleet, err := NewFleet(servers, cfg, "replica", eng.complete)
	if err != nil {
		return nil, err
	}
	if newClient == nil {
		return nil, core.ErrNilClient
	}
	client, err := newClient(workload.SplitSeed(cfg.Seed, 1))
	if err != nil {
		return nil, fmt.Errorf("cluster: creating client: %w", err)
	}

	total := cfg.WarmupRequests + cfg.Requests
	// Pre-generate payloads so request construction never perturbs dispatch
	// timing, mirroring the single-server integrated harness.
	eng.payloads = make([]app.Request, total)
	for i := range eng.payloads {
		eng.payloads[i] = client.NextRequest()
	}
	shaper := core.NewShapedTrafficShaper(cfg.shape(), workload.SplitSeed(cfg.Seed, 2))
	eng.offsets = shaper.Schedule(total)

	eng.aggregate = core.NewCollector(cfg.KeepRaw)
	if _, on := cfg.windowing(); on {
		eng.aggregate = core.NewWindowedCollector(cfg.KeepRaw)
	}
	// The engine mirrors measured samples into the tracer itself (it knows
	// the serving replica); the aggregate collector only carries the live
	// instruments, never a second tracer.
	eng.aggregate.SetMetrics(cfg.Metrics, "cluster")
	if err := fleet.Serve(client); err != nil {
		return nil, err
	}
	eng.fleet = fleet
	eng.traceRTT = fleet.RTT()
	return eng, nil
}

// run is the dispatcher: issue requests open-loop at their scheduled
// instants through the fleet (which runs any due control ticks first, then
// routes on a snapshot of the active replicas), drain, and assemble.
func (e *liveEngine) run(appName string) (*Result, error) {
	var dispatchErr error
	e.start = time.Now()
	deadline := e.start.Add(e.cfg.Timeout)
	for i, payload := range e.payloads {
		target := e.start.Add(e.offsets[i])
		core.WaitUntil(target)
		now := time.Now()
		if now.After(deadline) {
			break
		}
		tag := clusterTag{scheduled: target, offset: e.offsets[i], warmup: i < e.cfg.WarmupRequests}
		if dispatchErr = e.fleet.Dispatch(now.Sub(e.start), payload, tag); dispatchErr != nil {
			break
		}
	}
	shutdownErr := e.fleet.Shutdown(deadline)
	end := time.Since(e.start)
	if dispatchErr != nil {
		return nil, fmt.Errorf("cluster: dispatch failed: %w", dispatchErr)
	}
	if shutdownErr != nil {
		return nil, shutdownErr
	}
	return e.assemble(appName, end), nil
}

// complete is the fleet's completion callback: derive the sample on the
// cluster's time axis, close the request at its replica, and record it
// cluster-wide.
func (e *liveEngine) complete(rep *Replica[clusterTag], tag clusterTag, c Completion) {
	sample := core.Sample{
		Queue:   c.Queue,
		Service: c.Service,
		Sojourn: c.End.Sub(tag.scheduled) + e.traceRTT,
		Warmup:  tag.warmup,
		Err:     c.Failed,
		Offset:  tag.offset,
	}
	rep.Finish(sample, c.End.Sub(e.start))
	if !sample.Warmup {
		e.cfg.Trace.ObserveRequest(sample.Offset, sample.Queue, sample.Service,
			sample.Sojourn, e.traceRTT, 0, rep.ID(), sample.Err)
	}
	e.aggregate.Record(sample)
}

// assemble builds the Result for a live run from the collectors and the
// replica set's lifecycle ledger. end is the wall-clock offset at which the
// last worker finished.
func (e *liveEngine) assemble(appName string, end time.Duration) *Result {
	cfg := e.cfg
	agg := e.aggregate.Summary()
	elapsed := agg.Last.Sub(agg.First)
	achieved := 0.0
	if elapsed > 0 {
		achieved = float64(agg.Count) / elapsed.Seconds()
	}
	shape := cfg.shape()
	out := &Result{
		App:            appName,
		Policy:         cfg.Policy,
		Replicas:       cfg.Replicas,
		Threads:        cfg.Threads,
		OfferedQPS:     load.OfferedRate(shape, cfg.Requests+cfg.WarmupRequests),
		Shape:          shape.Name(),
		ShapeSpec:      shape.Spec(),
		AchievedQPS:    achieved,
		Requests:       agg.Count,
		Warmups:        agg.Warmups,
		Errors:         agg.Errors,
		Queue:          agg.Queue,
		Service:        agg.Service,
		Sojourn:        agg.Sojourn,
		ServiceCDF:     agg.ServiceCDF,
		SojournCDF:     agg.SojournCDF,
		ServiceSamples: agg.RawService,
		SojournSamples: agg.RawSojourn,
		Elapsed:        elapsed,
	}
	if width, on := cfg.windowing(); on {
		out.Windows = core.WindowsFromTimed(agg.Timed, width, shape)
	}
	out.ThreadsPer = append([]int(nil), cfg.ThreadsPer...)
	out.Trace = cfg.Trace.Report()
	out.PerReplica = e.fleet.Rows(end, elapsed)
	annotateElastic(out, e.fleet.Loop(), e.fleet.Set(), end)
	return out
}
