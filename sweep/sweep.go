// Package sweep contains the experiment drivers that regenerate every table
// and figure of the paper's evaluation (Secs. III, V, VI, and VII). Each
// driver returns plain data structures; `tailbench sweep` and the
// repository-level benchmarks print them as the rows/series the paper
// reports. DESIGN.md Sec. 3 maps experiments to drivers.
package sweep

import (
	"fmt"
	"time"

	"tailbench"
	"tailbench/internal/stats"
)

// Options control the cost/fidelity trade-off of an experiment run.
type Options struct {
	// Scale is the application dataset scale passed to every run.
	Scale float64
	// Requests is the number of measured requests per data point.
	Requests int
	// Warmup is the number of discarded warmup requests per data point.
	Warmup int
	// CalibrationRequests is the number of requests used to measure the
	// service-time distribution (Fig. 2, saturation estimation, simulator
	// calibration).
	CalibrationRequests int
	// Loads are the offered loads, as fractions of the measured saturation
	// throughput, at which latency is sampled.
	Loads []float64
	// Seed makes the experiment deterministic.
	Seed int64
	// Validate enables response validation during measurement runs.
	Validate bool
}

// Quick returns options sized for continuous integration and the Go
// benchmarks: small request counts, scaled-down datasets. It is a smoke-test
// size, not a cheaper Full: its short runs bias tail percentiles low, not
// just noisier (on an M/M/1 at load 0.7, a run of Quick's length reads the
// p99 about 23% below the analytic quantile at the median over 300 seeds).
func Quick() Options {
	return Options{
		Scale:               0.05,
		Requests:            400,
		Warmup:              80,
		CalibrationRequests: 150,
		Loads:               []float64{0.2, 0.5, 0.7},
		Seed:                1,
	}
}

// Full returns options sized for a faithful reproduction run (minutes per
// application rather than seconds).
func Full() Options {
	return Options{
		Scale:               1.0,
		Requests:            5000,
		Warmup:              500,
		CalibrationRequests: 1000,
		Loads:               []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		Seed:                1,
	}
}

// normalize fills zero fields with Quick defaults.
func (o Options) normalize() Options {
	q := Quick()
	if o.Scale <= 0 {
		o.Scale = q.Scale
	}
	if o.Requests <= 0 {
		o.Requests = q.Requests
	}
	if o.Warmup <= 0 {
		o.Warmup = q.Warmup
	}
	if o.CalibrationRequests <= 0 {
		o.CalibrationRequests = q.CalibrationRequests
	}
	if len(o.Loads) == 0 {
		o.Loads = q.Loads
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Calibration is the low-load characterization of one application: its
// service-time distribution and estimated saturation throughput.
type Calibration struct {
	App            string
	ServiceSamples []time.Duration
	ServiceCDF     []tailbench.CDFPoint
	Service        tailbench.LatencyStats
	// SaturationQPS is the estimated single-thread saturation throughput.
	SaturationQPS float64
}

// Calibrate measures the uncontended service-time distribution of an
// application. This is the data behind Fig. 2 and the per-application
// saturation estimates every other experiment uses to pick offered loads.
func Calibrate(app string, opts Options) (*Calibration, error) {
	opts = opts.normalize()
	samples, err := tailbench.MeasureServiceTimes(app, opts.Scale, opts.Seed, opts.CalibrationRequests)
	if err != nil {
		return nil, fmt.Errorf("sweep: calibrating %s: %w", app, err)
	}
	return &Calibration{
		App:            app,
		ServiceSamples: samples,
		ServiceCDF:     stats.SampleCDF(samples),
		Service:        stats.SummaryFromSamples(samples),
		SaturationQPS:  tailbench.SaturationQPS(samples, 1),
	}, nil
}

// LoadPoint is one (load, latency) sample of a latency-vs-load curve.
type LoadPoint struct {
	// Load is the offered load as a fraction of saturation.
	Load float64
	// QPS is the absolute offered load.
	QPS float64
	// Mean, P95, and P99 are sojourn-latency statistics at this load.
	Mean time.Duration
	P95  time.Duration
	P99  time.Duration
	// QueueMean is the mean queuing delay at this load.
	QueueMean time.Duration
}

// LoadCurve is a latency-vs-load series for one (app, mode, threads)
// combination.
type LoadCurve struct {
	App     string
	Mode    tailbench.Mode
	Threads int
	// IdealMemory marks simulated curves run with the idealized memory
	// system (Fig. 8).
	IdealMemory bool
	Points      []LoadPoint
}

// Label returns the series label used in figure output.
func (c LoadCurve) Label() string {
	l := fmt.Sprintf("%s/%s/%dthr", c.App, c.Mode, c.Threads)
	if c.IdealMemory {
		l += "/ideal-mem"
	}
	return l
}

// LatencyVsLoad measures mean/p95/p99 sojourn latency across offered loads
// for one application in one mode (Fig. 3 uses ModeIntegrated with one
// thread; Fig. 5/6/7 call it once per mode).
func LatencyVsLoad(app string, mode tailbench.Mode, threads int, opts Options) (*LoadCurve, error) {
	opts = opts.normalize()
	if threads < 1 {
		threads = 1
	}
	cal, err := Calibrate(app, opts)
	if err != nil {
		return nil, err
	}
	curve := &LoadCurve{App: app, Mode: mode, Threads: threads}
	for _, load := range opts.Loads {
		qps := load * cal.SaturationQPS * float64(threads)
		res, err := tailbench.Run(tailbench.RunSpec{
			App:      app,
			Mode:     mode,
			QPS:      qps,
			Threads:  threads,
			Requests: opts.Requests,
			Warmup:   opts.Warmup,
			Scale:    opts.Scale,
			Seed:     opts.Seed,
			Validate: opts.Validate,
		})
		if err != nil {
			return nil, fmt.Errorf("sweep: %s at load %.2f: %w", app, load, err)
		}
		curve.Points = append(curve.Points, LoadPoint{
			Load:      load,
			QPS:       qps,
			Mean:      res.Sojourn.Mean,
			P95:       res.Sojourn.P95,
			P99:       res.Sojourn.P99,
			QueueMean: res.Queue.Mean,
		})
	}
	return curve, nil
}

// ThreadScaling measures p95 latency versus per-thread load for several
// thread counts (Fig. 4).
func ThreadScaling(app string, threadCounts []int, opts Options) ([]*LoadCurve, error) {
	if len(threadCounts) == 0 {
		threadCounts = []int{1, 2, 4}
	}
	var curves []*LoadCurve
	for _, n := range threadCounts {
		c, err := LatencyVsLoad(app, tailbench.ModeIntegrated, n, opts)
		if err != nil {
			return nil, err
		}
		curves = append(curves, c)
	}
	return curves, nil
}

// ConfigComparison measures p95 latency versus load under all four harness
// configurations (Fig. 5 with one thread, Fig. 7 with four).
func ConfigComparison(app string, threads int, opts Options) ([]*LoadCurve, error) {
	modes := []tailbench.Mode{tailbench.ModeNetworked, tailbench.ModeLoopback, tailbench.ModeIntegrated, tailbench.ModeSimulated}
	var curves []*LoadCurve
	for _, mode := range modes {
		c, err := LatencyVsLoad(app, mode, threads, opts)
		if err != nil {
			return nil, err
		}
		curves = append(curves, c)
	}
	return curves, nil
}

// TableIRow is one column of Table I: an application's configuration and its
// p95 latency at 20%, 50%, and 70% load. The MPKI rows of the paper are
// hardware-counter measurements we cannot reproduce in pure Go; DESIGN.md
// documents the substitution (service-time statistics are reported instead).
type TableIRow struct {
	App        string
	Domain     string
	MeanSvc    time.Duration
	P95At20    time.Duration
	P95At50    time.Duration
	P95At70    time.Duration
	Saturation float64
}

// appDomains maps applications to the domain row of Table I.
var appDomains = map[string]string{
	"xapian":   "Online Search",
	"masstree": "Key-Value Store",
	"moses":    "Real-Time Translation",
	"sphinx":   "Speech Recognition",
	"img-dnn":  "Image Recognition",
	"specjbb":  "Java Middleware",
	"silo":     "OLTP (in-memory)",
	"shore":    "OLTP (disk/SSD)",
}

// Domain returns the Table I domain label for an application.
func Domain(app string) string {
	if d, ok := appDomains[app]; ok {
		return d
	}
	return "unknown"
}

// TableI reproduces Table I for the given applications: per-app p95 latency
// at 20%, 50%, and 70% of saturation load.
func TableI(apps []string, opts Options) ([]TableIRow, error) {
	if len(apps) == 0 {
		apps = tailbench.Apps()
	}
	o := opts.normalize()
	o.Loads = []float64{0.2, 0.5, 0.7}
	var rows []TableIRow
	for _, app := range apps {
		curve, err := LatencyVsLoad(app, tailbench.ModeIntegrated, 1, o)
		if err != nil {
			return nil, err
		}
		cal, err := Calibrate(app, o)
		if err != nil {
			return nil, err
		}
		row := TableIRow{
			App:        app,
			Domain:     Domain(app),
			MeanSvc:    cal.Service.Mean,
			Saturation: cal.SaturationQPS,
		}
		for _, p := range curve.Points {
			switch p.Load {
			case 0.2:
				row.P95At20 = p.P95
			case 0.5:
				row.P95At50 = p.P95
			case 0.7:
				row.P95At70 = p.P95
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// CaseStudyResult is the Fig. 8 data for one application: normalized p95
// latency versus per-thread load under the M/G/n queueing model (no
// threading overheads) and under the simulated system with an idealized
// memory system, for 1 and 4 threads.
type CaseStudyResult struct {
	App string
	// BaselineP95 is the low-load single-thread p95 used for normalization.
	BaselineP95 time.Duration
	MG1         *LoadCurve // M/G/1 queueing model
	MG4         *LoadCurve // M/G/4 queueing model
	Ideal1      *LoadCurve // simulated, idealized memory, 1 thread
	Ideal4      *LoadCurve // simulated, idealized memory, 4 threads
}

// CaseStudy reproduces the Sec. VII case study for one application.
func CaseStudy(app string, opts Options) (*CaseStudyResult, error) {
	opts = opts.normalize()
	out := &CaseStudyResult{App: app}
	// The M/G/n model is the simulated system with all threading overheads
	// removed (ideal memory and, by construction of the model, no
	// synchronization inflation): service times stay constant as threads
	// are added. We realize it by running the simulated mode with 1 and 4
	// threads and PerfError forced to 1 and contention disabled via the
	// queueing-model path: ideal memory plus an app with no sync overhead.
	mg1, err := simulatedCurve(app, 1, true, true, opts)
	if err != nil {
		return nil, err
	}
	mg4, err := simulatedCurve(app, 4, true, true, opts)
	if err != nil {
		return nil, err
	}
	ideal1, err := simulatedCurve(app, 1, true, false, opts)
	if err != nil {
		return nil, err
	}
	ideal4, err := simulatedCurve(app, 4, true, false, opts)
	if err != nil {
		return nil, err
	}
	out.MG1, out.MG4, out.Ideal1, out.Ideal4 = mg1, mg4, ideal1, ideal4
	if len(ideal1.Points) > 0 {
		out.BaselineP95 = ideal1.Points[0].P95
	}
	return out, nil
}

// simulatedCurve runs the simulated mode across loads. idealMemory removes
// memory contention; pureQueueing additionally removes synchronization
// overhead, turning the run into the M/G/n model of Fig. 8.
func simulatedCurve(app string, threads int, idealMemory, pureQueueing bool, opts Options) (*LoadCurve, error) {
	opts = opts.normalize()
	cal, err := Calibrate(app, opts)
	if err != nil {
		return nil, err
	}
	model, err := tailbench.Calibrate(app, cal.ServiceSamples, 1.0)
	if err != nil {
		return nil, err
	}
	if pureQueueing {
		model.SyncOverhead = 0
		model.MemContention = 0
	}
	curve := &LoadCurve{App: app, Mode: tailbench.ModeSimulated, Threads: threads, IdealMemory: idealMemory}
	for _, load := range opts.Loads {
		qps := load * cal.SaturationQPS * float64(threads)
		res, err := model.Run(simRunParams(qps, threads, idealMemory, opts))
		if err != nil {
			return nil, err
		}
		curve.Points = append(curve.Points, LoadPoint{
			Load: load,
			QPS:  qps,
			Mean: res.Sojourn.Mean,
			P95:  res.Sojourn.P95,
			P99:  res.Sojourn.P99,
		})
	}
	return curve, nil
}

// CoordinatedOmissionResult quantifies the closed-loop methodology error
// (Sec. II-B): the ratio of open-loop to closed-loop p95 latency at the same
// offered load.
type CoordinatedOmissionResult struct {
	App           string
	Load          float64
	OpenLoopP95   time.Duration
	ClosedLoopP95 time.Duration
	// UnderestimateFactor is OpenLoopP95 / ClosedLoopP95; values well above
	// 1 show how badly a closed-loop tester underestimates tail latency.
	UnderestimateFactor float64
}

// CoordinatedOmission compares the open-loop harness against a closed-loop
// load tester near saturation.
func CoordinatedOmission(app string, load float64, opts Options) (*CoordinatedOmissionResult, error) {
	opts = opts.normalize()
	if load <= 0 {
		load = 0.9
	}
	cal, err := Calibrate(app, opts)
	if err != nil {
		return nil, err
	}
	qps := load * cal.SaturationQPS
	spec := tailbench.RunSpec{
		App: app, Mode: tailbench.ModeIntegrated, QPS: qps, Threads: 1,
		Requests: opts.Requests, Warmup: opts.Warmup, Scale: opts.Scale, Seed: opts.Seed,
	}
	open, err := tailbench.Run(spec)
	if err != nil {
		return nil, err
	}
	spec.Clients = 1
	closed, err := tailbench.RunClosedLoop(spec)
	if err != nil {
		return nil, err
	}
	out := &CoordinatedOmissionResult{
		App:           app,
		Load:          load,
		OpenLoopP95:   open.Sojourn.P95,
		ClosedLoopP95: closed.Sojourn.P95,
	}
	if closed.Sojourn.P95 > 0 {
		out.UnderestimateFactor = float64(open.Sojourn.P95) / float64(closed.Sojourn.P95)
	}
	return out, nil
}
