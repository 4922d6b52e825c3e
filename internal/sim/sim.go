// Package sim is the suite's stand-in for running the integrated harness
// configuration inside a microarchitectural simulator (the paper uses zsim,
// Sec. VI). Instead of simulating x86 cores, it models the system at the
// level the paper's validation actually relies on: request service times are
// drawn from an empirical distribution calibrated against the real (Go)
// application, scaled by a constant performance-error factor (the paper
// observes that simulation error shifts latency-vs-load curves horizontally
// by a constant factor), and inflated by a memory-contention model when
// several worker threads are active. The memory model can be idealized
// (zero contention), reproducing the ablation the paper's case study uses to
// separate memory contention from synchronization overheads (Sec. VII,
// Fig. 8).
package sim

import (
	"errors"
	"math/rand"
	"time"

	"tailbench/internal/core"
	"tailbench/internal/load"
	"tailbench/internal/queueing"
	"tailbench/internal/stats"
	"tailbench/internal/workload"
)

// AppModel is the calibrated per-application model the simulator runs.
type AppModel struct {
	// Name of the application the model was calibrated from.
	Name string
	// ServiceDist is the single-threaded, uncontended service-time
	// distribution measured on the real application.
	ServiceDist *stats.EmpiricalDistribution
	// PerfError is the constant factor between simulated and real service
	// times (>1 means the simulated system is slower). The paper reports
	// per-application differences of 10%-39% (Fig. 5).
	PerfError float64
	// MemContention is the fractional service-time inflation per additional
	// concurrently active thread caused by shared-memory contention (cache
	// and memory bandwidth). Removed under an idealized memory system.
	MemContention float64
	// SyncOverhead is the fractional service-time inflation per additional
	// worker thread caused by synchronization (locks, contended atomics).
	// Unaffected by an idealized memory system.
	SyncOverhead float64
}

// ErrNoModel indicates a model without a calibrated service distribution.
var ErrNoModel = errors.New("sim: model has no service-time distribution")

// Calibrate builds an AppModel from measured single-threaded service times.
func Calibrate(name string, serviceSamples []time.Duration, perfError, memContention, syncOverhead float64) (*AppModel, error) {
	dist, err := stats.NewEmpiricalDistribution(serviceSamples)
	if err != nil {
		return nil, err
	}
	if perfError <= 0 {
		perfError = 1
	}
	return &AppModel{
		Name:          name,
		ServiceDist:   dist,
		PerfError:     perfError,
		MemContention: memContention,
		SyncOverhead:  syncOverhead,
	}, nil
}

// DefaultContention returns the per-application contention coefficients the
// suite ships. They encode the case-study finding of Sec. VII: moses's
// multithreaded slowdown comes mostly from memory-system contention, while
// silo's comes mostly from synchronization; the other applications scale
// close to ideally.
func DefaultContention(app string) (memContention, syncOverhead float64) {
	switch app {
	case "moses":
		return 0.22, 0.02
	case "silo":
		return 0.02, 0.28
	case "sphinx":
		return 0.10, 0.02
	case "img-dnn":
		return 0.06, 0.01
	case "specjbb":
		return 0.04, 0.03
	case "shore":
		return 0.03, 0.10
	case "masstree", "xapian":
		return 0.02, 0.01
	default:
		return 0.05, 0.02
	}
}

// DefaultPerfError returns the per-application constant performance error of
// the simulated system relative to the real one, chosen to match the
// differences annotated in Fig. 5 (e.g. 10% for xapian, 16% for masstree and
// sphinx, 20% for moses, 31% for img-dnn, 32% for shore).
func DefaultPerfError(app string) float64 {
	switch app {
	case "xapian":
		return 1.10
	case "masstree", "sphinx":
		return 1.16
	case "moses":
		return 1.20
	case "img-dnn":
		return 1.31
	case "shore":
		return 1.32
	case "silo":
		return 0.95
	case "specjbb":
		return 0.93
	default:
		return 1.15
	}
}

// RunParams configures one simulated measurement run.
type RunParams struct {
	QPS      float64
	Threads  int
	Requests int
	Warmup   int
	Seed     int64
	// IdealMemory removes the memory-contention inflation (zero-latency,
	// infinite-bandwidth DRAM), as in the Sec. VII case study.
	IdealMemory bool
	// Load is the arrival-rate profile; nil means a constant-rate Poisson
	// process at QPS (the scalar shorthand).
	Load load.Shape
	// Window is the windowed-accounting width; zero picks one
	// automatically for time-varying shapes, negative disables windows.
	Window time.Duration
}

// Result holds the simulated latency distributions.
type Result struct {
	App            string
	QPS            float64
	Threads        int
	IdealMemory    bool
	Queue          stats.LatencySummary
	Service        stats.LatencySummary
	Sojourn        stats.LatencySummary
	SojournSamples []time.Duration
	ServiceSamples []time.Duration
	// Shape and ShapeSpec identify the arrival process; Windows is the
	// virtual-time windowed latency series (present when windowed
	// accounting is enabled).
	Shape     string
	ShapeSpec string
	Windows   []stats.WindowStat
}

// Run simulates the application under the integrated harness configuration.
// It is a discrete-event simulation: Poisson arrivals, FIFO request queue,
// Threads worker threads, and service times drawn from the calibrated
// distribution with the model's scaling factors applied.
func (m *AppModel) Run(p RunParams) (*Result, error) {
	if m.ServiceDist == nil {
		return nil, ErrNoModel
	}
	if p.Threads < 1 {
		p.Threads = 1
	}
	if p.Requests < 1 {
		p.Requests = 1000
	}
	if p.Warmup < 0 {
		p.Warmup = 0
	}
	// Per-thread inflation factors are fixed for the run: synchronization
	// always applies; memory contention only with a real memory system.
	inflate := 1.0 + m.SyncOverhead*float64(p.Threads-1)
	if !p.IdealMemory {
		inflate *= 1.0 + m.MemContention*float64(p.Threads-1)
	}
	scale := m.PerfError * inflate
	sampler := scaledSampler{dist: m.ServiceDist, scale: scale}
	shape := load.Or(p.Load, p.QPS)
	mgk := queueing.MGkConfig{
		ArrivalRate: p.QPS,
		Servers:     p.Threads,
		Requests:    p.Requests,
		Warmup:      p.Warmup,
		Seed:        workload.SplitSeed(p.Seed, 777),
	}
	if !load.IsConstant(shape) {
		// Time-varying shapes hand the simulator an explicit schedule,
		// realized with the same thinning sampler as the live harness.
		mgk.Arrivals = load.Schedule(shape, p.Requests+p.Warmup, workload.SplitSeed(mgk.Seed, 1))
	} else if p.Load != nil {
		mgk.ArrivalRate = shape.Rate(0)
	}
	res := queueing.SimulateMGk(mgk, sampler)

	serviceSamples := make([]time.Duration, 0, len(res.SojournSamples))
	r := workload.NewRand(workload.SplitSeed(p.Seed, 778))
	for range res.SojournSamples {
		serviceSamples = append(serviceSamples, sampler.Sample(r))
	}
	out := &Result{
		App:            m.Name,
		QPS:            load.OfferedRate(shape, p.Requests+p.Warmup),
		Threads:        p.Threads,
		IdealMemory:    p.IdealMemory,
		Queue:          res.Wait,
		Service:        stats.SummaryFromSamples(serviceSamples),
		Sojourn:        res.Sojourn,
		SojournSamples: res.SojournSamples,
		ServiceSamples: serviceSamples,
		Shape:          shape.Name(),
		ShapeSpec:      shape.Spec(),
	}
	if load.WindowEnabled(p.Window, p.Load) {
		timed := make([]stats.TimedSample, len(res.SojournSamples))
		for i := range timed {
			timed[i] = stats.TimedSample{At: res.ArrivalTimes[i], Sojourn: res.SojournSamples[i]}
		}
		out.Windows = core.WindowsFromTimed(timed, p.Window, shape)
	}
	return out, nil
}

// SaturationQPS estimates the load at which the simulated system saturates:
// Threads / (scaled mean service time).
func (m *AppModel) SaturationQPS(threads int, idealMemory bool) float64 {
	if m.ServiceDist == nil || threads < 1 {
		return 0
	}
	inflate := 1.0 + m.SyncOverhead*float64(threads-1)
	if !idealMemory {
		inflate *= 1.0 + m.MemContention*float64(threads-1)
	}
	mean := m.ServiceDist.Mean().Seconds() * m.PerfError * inflate
	if mean <= 0 {
		return 0
	}
	return float64(threads) / mean
}

// scaledSampler draws from the empirical distribution and applies the
// model's constant scaling.
type scaledSampler struct {
	dist  *stats.EmpiricalDistribution
	scale float64
}

// Sample implements queueing.ServiceSampler.
func (s scaledSampler) Sample(r *rand.Rand) time.Duration {
	return time.Duration(float64(s.dist.Quantile(r.Float64())) * s.scale)
}
