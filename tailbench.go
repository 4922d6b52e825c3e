// Package tailbench is the public API of the TailBench suite: a set of
// latency-critical applications and a load-testing harness that measures
// their tail latency with a statistically robust, open-loop methodology, as
// described in "TailBench: A Benchmark Suite and Evaluation Methodology for
// Latency-Critical Applications" (Kasture & Sanchez, IISWC 2016).
//
// The typical flow is:
//
//	spec := tailbench.RunSpec{App: "masstree", Mode: tailbench.ModeIntegrated, QPS: 2000, Requests: 5000}
//	res, err := tailbench.Run(spec)
//	fmt.Println(res.Sojourn.P95)
//
// Eight applications are available (see Apps): xapian, masstree, moses,
// sphinx, img-dnn, specjbb, silo, and shore. Four measurement modes mirror
// the paper's harness configurations: integrated (in-process), loopback
// (TCP over localhost), networked (TCP plus synthetic NIC/switch delay), and
// simulated (a calibrated discrete-event model standing in for a
// microarchitectural simulator).
package tailbench

import (
	"fmt"
	"sort"
	"time"

	"tailbench/internal/app"
	"tailbench/internal/apps/imgdnn"
	"tailbench/internal/apps/masstree"
	"tailbench/internal/apps/moses"
	"tailbench/internal/apps/shore"
	"tailbench/internal/apps/silo"
	"tailbench/internal/apps/specjbb"
	"tailbench/internal/apps/sphinx"
	"tailbench/internal/apps/xapian"
	"tailbench/internal/core"
	"tailbench/internal/sim"
	"tailbench/internal/stats"
	"tailbench/internal/workload"
)

// Mode selects a harness configuration (Fig. 1 of the paper).
type Mode int

// Harness configurations.
const (
	// ModeIntegrated runs client, harness, and application in one process.
	ModeIntegrated Mode = iota
	// ModeLoopback runs the application behind TCP on the loopback device.
	ModeLoopback
	// ModeNetworked adds a synthetic NIC+switch delay on top of loopback,
	// standing in for a multi-machine deployment.
	ModeNetworked
	// ModeSimulated runs the calibrated discrete-event system model instead
	// of the real application (the simulator stand-in).
	ModeSimulated
)

// String returns the mode name used in reports.
func (m Mode) String() string {
	switch m {
	case ModeIntegrated:
		return "integrated"
	case ModeLoopback:
		return "loopback"
	case ModeNetworked:
		return "networked"
	case ModeSimulated:
		return "simulated"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode converts a mode name ("integrated", "loopback", "networked",
// "simulated") to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "integrated":
		return ModeIntegrated, nil
	case "loopback":
		return ModeLoopback, nil
	case "networked":
		return ModeNetworked, nil
	case "simulated":
		return ModeSimulated, nil
	default:
		return 0, fmt.Errorf("tailbench: unknown mode %q", s)
	}
}

// MarshalText encodes the mode by name, so JSON result files stay
// self-describing and stable if the constant block ever changes.
func (m Mode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText decodes a mode name.
func (m *Mode) UnmarshalText(text []byte) error {
	parsed, err := ParseMode(string(text))
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// kind converts a Mode to the internal configuration kind.
func (m Mode) kind() core.ConfigKind {
	switch m {
	case ModeLoopback:
		return core.Loopback
	case ModeNetworked:
		return core.Networked
	case ModeSimulated:
		return core.Simulated
	default:
		return core.Integrated
	}
}

// registry maps application names to their factories.
var registry = map[string]app.Factory{
	"xapian":   xapian.Factory{},
	"masstree": masstree.Factory{},
	"moses":    moses.Factory{},
	"sphinx":   sphinx.Factory{},
	"img-dnn":  imgdnn.Factory{},
	"specjbb":  specjbb.Factory{},
	"silo":     silo.Factory{},
	"shore":    shore.Factory{},
}

// Apps returns the names of all applications in the suite, sorted.
func Apps() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ErrUnknownApp is returned for application names not in the registry.
type ErrUnknownApp struct{ Name string }

// Error implements error.
func (e ErrUnknownApp) Error() string {
	return fmt.Sprintf("tailbench: unknown application %q (available: %v)", e.Name, Apps())
}

// RunSpec describes one measurement.
type RunSpec struct {
	// App is the application name (see Apps).
	App string
	// Mode is the harness configuration.
	Mode Mode
	// QPS is the offered load; 0 means saturation (back-to-back requests).
	// Shorthand for Load: Constant(QPS); ignored when Load is set.
	QPS float64
	// Load is the arrival process driving the open-loop traffic shaper:
	// any built-in shape (Constant, Diurnal, Ramp, Spike, Burst, Trace) or
	// a custom LoadShape. Nil means Constant(QPS).
	Load LoadShape
	// Window is the width of the time-windowed latency accounting in the
	// result. Zero enables windows automatically (a twentieth of the run's
	// horizon) when Load is time-varying and disables them for
	// constant-rate runs; a negative value disables them entirely.
	Window time.Duration
	// Threads is the number of application worker threads (default 1).
	Threads int
	// Clients is the number of client connections for the loopback and
	// networked modes (default derived from Threads).
	Clients int
	// Requests is the number of measured requests (default 1000).
	Requests int
	// Warmup is the number of discarded warmup requests. Zero means the
	// default (10% of Requests, with a 50-request floor in live modes); a
	// negative value means no warmup at all — the explicit-zero spelling,
	// since 0 is taken by the default.
	Warmup int
	// Scale shrinks or grows the application dataset (default 1.0).
	Scale float64
	// Seed makes the run reproducible (default 1).
	Seed int64
	// KeepRaw retains every latency sample in the result.
	KeepRaw bool
	// Validate makes clients check every response.
	Validate bool
	// NetworkDelay overrides the synthetic one-way network delay of the
	// networked mode (default 25µs).
	NetworkDelay time.Duration
	// Repeats > 1 repeats the run with fresh seeds and aggregates, per the
	// paper's confidence-interval methodology.
	Repeats int
	// IdealMemory simulates a zero-latency, infinite-bandwidth memory system
	// (simulated mode only) — the Sec. VII ablation.
	IdealMemory bool
	// PerfError overrides the simulated system's constant performance error
	// factor (simulated mode only; default per application).
	PerfError float64
	// CalibrationRequests sets how many requests calibrate the simulated
	// model (simulated mode only; default 300).
	CalibrationRequests int
	// Trace enables request-level tracing and tail attribution (see
	// TraceSpec); nil keeps tracing off and the hot path allocation-free.
	// The simulated mode's calibrated application model records no traces.
	Trace *TraceSpec
	// Metrics, when non-nil, receives live counters and latency histograms
	// as the run progresses (live modes only); results are identical with or
	// without it.
	Metrics *MetricsRegistry
}

// LatencyStats summarizes one latency stream (queue, service, or sojourn
// time): the sample count, mean, p50/p95/p99, and extremes. It is the
// engines' own summary type, shared by every result block.
type LatencyStats = stats.LatencySummary

// CDFPoint is one point of a cumulative latency distribution: the fraction
// Cumulative of samples is at or below Value.
type CDFPoint = stats.CDFPoint

// Result is the outcome of a measurement run.
type Result struct {
	App  string
	Mode Mode
	// Shape names the arrival process family ("constant", "diurnal", ...)
	// and ShapeSpec its canonical parameter encoding, re-parseable with
	// ParseLoadShape, so saved results are self-describing.
	Shape     string `json:",omitempty"`
	ShapeSpec string `json:",omitempty"`
	// OfferedQPS is the configured arrival rate — for time-varying shapes,
	// the mean rate over the run's horizon.
	OfferedQPS  float64
	AchievedQPS float64
	Threads     int
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
	// time-varying load shapes, opt-in via RunSpec.Window otherwise.
	Windows []WindowStats `json:",omitempty"`
	Elapsed time.Duration
	Runs    int
	// P95CIRelative is the relative half-width of the 95% confidence
	// interval of the p95 sojourn latency across repeated runs (0 if the run
	// was not repeated).
	P95CIRelative float64
	// IdealMemory records whether the simulated run used the idealized
	// memory system.
	IdealMemory bool
	// Trace is the tail-attribution report when tracing was enabled.
	Trace *TraceReport `json:",omitempty"`
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s [%s] threads=%d qps=%.1f p95=%v p99=%v mean=%v n=%d err=%d",
		r.App, r.Mode, r.Threads, r.OfferedQPS,
		r.Sojourn.P95.Round(time.Microsecond), r.Sojourn.P99.Round(time.Microsecond),
		r.Sojourn.Mean.Round(time.Microsecond), r.Requests, r.Errors)
}

// appConfig builds the internal application configuration from a spec.
func (s RunSpec) appConfig() app.Config {
	return app.Config{Threads: s.Threads, Scale: s.Scale, Seed: s.Seed}.Normalize()
}

// runConfig builds the internal harness configuration from a spec.
func (s RunSpec) runConfig() core.RunConfig {
	return core.RunConfig{
		QPS:            s.QPS,
		Load:           s.Load,
		Window:         s.Window,
		Threads:        s.Threads,
		Clients:        s.Clients,
		Requests:       s.Requests,
		WarmupRequests: s.Warmup,
		Seed:           s.Seed,
		KeepRaw:        s.KeepRaw,
		Validate:       s.Validate,
		NetworkDelay:   s.NetworkDelay,
		Metrics:        s.Metrics,
	}
}

// factoryFor resolves the application factory for a spec.
func factoryFor(name string) (app.Factory, error) {
	f, ok := registry[name]
	if !ok {
		return nil, ErrUnknownApp{Name: name}
	}
	return f, nil
}

// NewServer constructs an application server directly. Most users should
// call Run instead; NewServer is useful for embedding an application behind
// a custom harness (e.g. the NetServer in examples/configcompare).
func NewServer(name string, threads int, scale float64, seed int64) (app.Server, error) {
	f, err := factoryFor(name)
	if err != nil {
		return nil, err
	}
	return f.NewServer(app.Config{Threads: threads, Scale: scale, Seed: seed}.Normalize())
}

// Run executes one measurement according to the spec.
func Run(spec RunSpec) (*Result, error) {
	f, err := factoryFor(spec.App)
	if err != nil {
		return nil, err
	}
	if err := checkQPS("RunSpec", spec.QPS); err != nil {
		return nil, err
	}
	if err := checkNetworkDelay("RunSpec", spec.NetworkDelay); err != nil {
		return nil, err
	}
	if spec.Mode == ModeSimulated {
		return runSimulated(spec, f)
	}
	cfg := spec.appConfig()
	server, err := f.NewServer(cfg)
	if err != nil {
		return nil, fmt.Errorf("tailbench: building %s server: %w", spec.App, err)
	}
	defer server.Close()
	clientFactory := func(seed int64) (app.Client, error) { return f.NewClient(cfg, seed) }

	rec := spec.Trace.recorder()
	runCfg := spec.runConfig()
	runCfg.Trace = rec
	var res *core.Result
	if spec.Repeats > 1 {
		res, err = core.RunRepeated(spec.Mode.kind(), server, clientFactory, runCfg,
			core.RepeatOptions{MinRuns: spec.Repeats, MaxRuns: spec.Repeats})
	} else {
		res, err = core.SingleRun(spec.Mode.kind(), server, clientFactory, runCfg)
	}
	if err != nil {
		return nil, err
	}
	out := fromCore(spec, res)
	out.Trace = rec.Report()
	return out, nil
}

// fromCore labels the harness result with the run mode. The result blocks are
// the engines' own types, so this is plain assignment.
func fromCore(spec RunSpec, res *core.Result) *Result {
	out := &Result{
		App:            res.App,
		Mode:           spec.Mode,
		Shape:          res.Shape,
		ShapeSpec:      res.ShapeSpec,
		OfferedQPS:     res.OfferedQPS,
		AchievedQPS:    res.AchievedQPS,
		Threads:        res.Threads,
		Requests:       res.Requests,
		Errors:         res.Errors,
		Queue:          res.Queue,
		Service:        res.Service,
		Sojourn:        res.Sojourn,
		ServiceCDF:     res.ServiceCDF,
		SojournCDF:     res.SojournCDF,
		ServiceSamples: res.ServiceSamples,
		SojournSamples: res.SojournSamples,
		Windows:        res.Windows,
		Elapsed:        res.Elapsed,
		Runs:           res.Runs,
	}
	if res.Runs > 1 {
		out.P95CIRelative = res.P95CI.Relative()
	}
	return out
}

// MeasureServiceTimes measures uncontended single-threaded service times of
// an application (used for Fig. 2 CDFs, saturation estimation, and simulator
// calibration).
func MeasureServiceTimes(appName string, scale float64, seed int64, requests int) ([]time.Duration, error) {
	f, err := factoryFor(appName)
	if err != nil {
		return nil, err
	}
	cfg := app.Config{Scale: scale, Seed: seed}.Normalize()
	server, err := f.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	defer server.Close()
	clientFactory := func(s int64) (app.Client, error) { return f.NewClient(cfg, s) }
	return core.MeasureServiceTimes(server, clientFactory, requests, seed)
}

// SaturationQPS estimates the single-node saturation throughput for the
// given number of worker threads from measured service times:
// threads / mean service time.
func SaturationQPS(serviceTimes []time.Duration, threads int) float64 {
	if len(serviceTimes) == 0 || threads < 1 {
		return 0
	}
	mean := stats.MeanDuration(serviceTimes)
	if mean <= 0 {
		return 0
	}
	return float64(threads) / mean.Seconds()
}

// Calibrate builds a simulated-system model for an application from measured
// service times, using the suite's default per-application performance-error
// and contention coefficients (override via RunSpec.PerfError).
func Calibrate(appName string, serviceTimes []time.Duration, perfError float64) (*sim.AppModel, error) {
	if perfError <= 0 {
		perfError = sim.DefaultPerfError(appName)
	}
	mem, sync := sim.DefaultContention(appName)
	return sim.Calibrate(appName, serviceTimes, perfError, mem, sync)
}

// runSimulated measures the application on the simulated system: calibrate a
// model from the real application at low load, then run the discrete-event
// simulation at the requested load.
func runSimulated(spec RunSpec, f app.Factory) (*Result, error) {
	samples, err := calibrate(spec.App, spec.Scale, spec.Seed, spec.CalibrationRequests)
	if err != nil {
		return nil, err
	}
	model, err := Calibrate(spec.App, samples, spec.PerfError)
	if err != nil {
		return nil, err
	}
	threads := spec.Threads
	if threads < 1 {
		threads = 1
	}
	requests := spec.Requests
	if requests <= 0 {
		requests = 1000
	}
	warmup := spec.Warmup
	if warmup == 0 {
		warmup = requests / 10
	} else if warmup < 0 {
		warmup = 0
	}
	simRes, err := model.Run(sim.RunParams{
		QPS:         spec.QPS,
		Load:        spec.Load,
		Window:      spec.Window,
		Threads:     threads,
		Requests:    requests,
		Warmup:      warmup,
		Seed:        workload.SplitSeed(spec.Seed, 5),
		IdealMemory: spec.IdealMemory,
	})
	if err != nil {
		return nil, err
	}
	out := &Result{
		App:         spec.App,
		Mode:        ModeSimulated,
		Shape:       simRes.Shape,
		ShapeSpec:   simRes.ShapeSpec,
		OfferedQPS:  simRes.QPS,
		AchievedQPS: simRes.QPS,
		Windows:     simRes.Windows,
		Threads:     threads,
		Requests:    simRes.Sojourn.Count,
		Queue:       simRes.Queue,
		Service:     simRes.Service,
		Sojourn:     simRes.Sojourn,
		ServiceCDF:  stats.SampleCDF(simRes.ServiceSamples),
		SojournCDF:  stats.SampleCDF(simRes.SojournSamples),
		Runs:        1,
		IdealMemory: spec.IdealMemory,
	}
	if spec.KeepRaw {
		out.ServiceSamples = simRes.ServiceSamples
		out.SojournSamples = simRes.SojournSamples
	}
	return out, nil
}

// RunClosedLoop measures an application with a conventional closed-loop load
// tester (the flawed methodology the paper contrasts against); used by the
// coordinated-omission experiment.
func RunClosedLoop(spec RunSpec) (*Result, error) {
	f, err := factoryFor(spec.App)
	if err != nil {
		return nil, err
	}
	cfg := spec.appConfig()
	server, err := f.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	defer server.Close()
	clientFactory := func(seed int64) (app.Client, error) { return f.NewClient(cfg, seed) }
	res, err := core.RunClosedLoop(server, clientFactory, spec.runConfig())
	if err != nil {
		return nil, err
	}
	return fromCore(spec, res), nil
}

// SystemDescription returns the Table II style description of the simulated
// system.
func SystemDescription() string {
	return sim.DefaultSystemConfig().String()
}
