// Package core implements the TailBench harness: the open-loop traffic
// shaper, the instrumented request queue, the statistics collector, and the
// in-process (integrated) measurement configuration of Sec. IV, the
// NetServer and ReplicaConn that the loopback and networked configurations
// run over (as one-replica clusters, see internal/cluster), the closed-loop
// load tester used to demonstrate the coordinated-omission pitfall, and the
// repeated-run aggregation of Sec. IV-C.
package core

import (
	"errors"
	"fmt"
	"time"

	"tailbench/internal/load"
	"tailbench/internal/metrics"
	"tailbench/internal/trace"
)

// ConfigKind selects one of the harness configurations from Fig. 1.
type ConfigKind int

// Harness configurations.
const (
	// Integrated runs client, harness, and application in a single process
	// communicating through shared memory (an in-process queue). This is the
	// configuration meant for simulators.
	Integrated ConfigKind = iota
	// Loopback runs client and application in the same process but
	// communicates over TCP through the loopback interface, capturing
	// network-stack overheads without NIC/switch delays.
	Loopback
	// Networked runs clients over TCP as if on separate machines. In this
	// reproduction the "network" is the loopback device plus an injected
	// round-trip delay standing in for NIC and switch latency (see
	// DESIGN.md, substitutions).
	Networked
	// Simulated runs the discrete-event simulated system (internal/sim) in
	// place of the real application, the stand-in for running the
	// integrated configuration inside a microarchitectural simulator.
	Simulated
)

// String returns the configuration name used in reports and figures.
func (k ConfigKind) String() string {
	switch k {
	case Integrated:
		return "integrated"
	case Loopback:
		return "loopback"
	case Networked:
		return "networked"
	case Simulated:
		return "simulated"
	default:
		return fmt.Sprintf("ConfigKind(%d)", int(k))
	}
}

// RunConfig parameterizes a single measurement run.
type RunConfig struct {
	// QPS is the offered load in queries per second. Zero or negative means
	// "saturation": requests are issued back to back. Ignored when Load is
	// set.
	QPS float64
	// Load is the arrival-rate profile driving the traffic shaper. Nil
	// means a constant-rate profile at QPS — the scalar field stays the
	// shorthand, so existing callers keep their exact behavior.
	Load load.Shape
	// Window is the width of the time-windowed latency accounting. Zero
	// picks a width automatically for time-varying load shapes (the run's
	// horizon split into stats.DefaultWindowCount windows) and disables
	// windowing for constant-rate runs; a negative value disables it
	// entirely.
	Window time.Duration
	// Threads is the number of application worker threads.
	Threads int
	// Clients is the number of closed-loop client threads (RunClosedLoop
	// only); if zero, a value is derived from Threads.
	Clients int
	// Requests is the number of measured requests to issue (after warmup).
	Requests int
	// WarmupRequests is the number of initial requests whose measurements
	// are discarded. If zero, 10% of Requests (minimum 50) is used; a
	// negative value means no warmup at all — the explicit-zero spelling,
	// since 0 is taken by the default (matching the cluster configs).
	WarmupRequests int
	// Seed drives all randomness in the run (inter-arrival times and request
	// contents). Repeated runs use different seeds.
	Seed int64
	// KeepRaw retains every individual latency sample in the result
	// (short-run mode, Sec. IV-C). Otherwise only histograms are kept.
	KeepRaw bool
	// Validate makes clients check every response and counts failures.
	Validate bool
	// Timeout bounds the whole run. Zero means a generous default derived
	// from the request count and offered load.
	Timeout time.Duration
	// Trace, when non-nil, records a span tree per measured request and
	// retains the slowest per window (see internal/trace). Nil — the default
	// — keeps the hot path allocation-free.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives live counters/gauges/histograms as the
	// run progresses (completions, errors, sojourn latencies). Reported
	// results are identical with or without it.
	Metrics *metrics.Registry
}

// Errors returned by run configuration validation.
var (
	ErrNoRequests = errors.New("core: RunConfig.Requests must be positive")
	ErrNilServer  = errors.New("core: server must not be nil")
	ErrNilClient  = errors.New("core: client factory must not be nil")
)

// Normalize resolves a RunConfig's defaults. Callers that hand a run to
// another engine (the one-replica cluster behind the loopback and networked
// configurations) resolve through it, so every live configuration shares
// one warmup rule.
func (c RunConfig) Normalize() RunConfig {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Requests <= 0 {
		c.Requests = 1000
	}
	if c.WarmupRequests == 0 {
		c.WarmupRequests = c.Requests / 10
		if c.WarmupRequests < 50 {
			c.WarmupRequests = 50
		}
	} else if c.WarmupRequests < 0 {
		c.WarmupRequests = 0
	}
	if c.Clients <= 0 {
		// Enough clients that client-side serialization is never the
		// bottleneck: at least 2 per worker thread, at most 16.
		c.Clients = 2 * c.Threads
		if c.Clients > 16 {
			c.Clients = 16
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Timeout <= 0 {
		c.Timeout = defaultTimeoutShape(c.Requests+c.WarmupRequests, c.shape())
	}
	return c
}

// shape resolves the arrival profile: the explicit Load if set, else the
// constant-rate shorthand derived from QPS.
func (c RunConfig) shape() load.Shape { return load.Or(c.Load, c.QPS) }

// windowing resolves the windowed-accounting policy (see
// load.WindowEnabled); when enabled, a zero width means automatic (resolved
// by stats.WindowSeries).
func (c RunConfig) windowing() (width time.Duration, enabled bool) {
	return c.Window, load.WindowEnabled(c.Window, c.Load)
}

// DefaultTimeout derives the default run deadline for total requests at the
// given offered load: 50ms per request on average plus scheduling slack
// (latency-critical requests are far shorter, so this only matters for
// sphinx and deeply saturated runs), or the full arrival schedule plus
// slack when a low rate makes the schedule itself the bottleneck. Shared by
// the single-server and cluster harnesses so their deadline policies cannot
// diverge.
func DefaultTimeout(total int, qps float64) time.Duration {
	return defaultTimeoutShape(total, load.Constant(qps))
}

// defaultTimeoutShape generalizes DefaultTimeout to arbitrary arrival
// shapes: the schedule horizon comes from integrating the shape's rate. For
// a constant shape it reduces exactly to the scalar-QPS formula.
func defaultTimeoutShape(total int, shape load.Shape) time.Duration {
	timeout := time.Duration(total)*50*time.Millisecond + 10*time.Second
	if horizon := load.Horizon(shape, total); horizon > 0 {
		if scheduled := horizon + 10*time.Second; scheduled > timeout {
			timeout = scheduled
		}
	}
	return timeout
}

// validate reports configuration errors that defaults cannot fix.
func (c RunConfig) validate() error {
	if c.Requests < 0 {
		return ErrNoRequests
	}
	return nil
}
