package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"tailbench/internal/cluster"
	"tailbench/internal/trace"
)

// schemaVersion is bumped whenever a metric's definition or a workload's
// inputs change, so -compare never sets numbers of different meaning side by
// side.
const schemaVersion = 1

// Manifest says what produced a result file.
type Manifest struct {
	Schema     int     `json:"schema"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	GitRev     string  `json:"git_rev"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	// Sizing of the live workloads, fixed for nproc = 2: one dispatcher, one
	// worker thread per server. The loopback transport opens
	// cluster.ConnsPerReplica(1) connections to each of its 2 replicas.
	LiveThreadsPerServer int `json:"live_threads_per_server"`
	LiveConnections      int `json:"live_connections"`
}

func newManifest(seed int64, seconds float64) Manifest {
	return Manifest{
		Schema:               schemaVersion,
		Seed:                 seed,
		Seconds:              seconds,
		GitRev:               gitRev(),
		GoVersion:            runtime.Version(),
		GOOS:                 runtime.GOOS,
		GOARCH:               runtime.GOARCH,
		GOMAXPROCS:           runtime.GOMAXPROCS(0),
		NumCPU:               runtime.NumCPU(),
		CPUModel:             cpuModel(),
		LiveThreadsPerServer: 1,
		LiveConnections:      2 * cluster.ConnsPerReplica(1),
	}
}

// gitRev is the checkout's revision, or "unknown" outside a git repository
// (the driver's checkouts are plain directories).
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// Metric is one named reading. Values holds one entry per set of runs (see
// -sets); N is the number of samples behind the last entry, where that is a
// percentile or a median over passes.
type Metric struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	N      int       `json:"n,omitempty"`
}

// WorkloadResult is everything one workload reported: the end-to-end metrics
// from the untraced run and, when a traced run was made, the layer metrics.
type WorkloadResult struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	EndToEnd  []Metric          `json:"end_to_end,omitempty"`
	PerLayer  []Metric          `json:"per_layer,omitempty"`
	Notes     map[string]string `json:"notes,omitempty"`
}

// ResultFile is what -out writes and -compare reads.
type ResultFile struct {
	Manifest  Manifest         `json:"manifest"`
	Workloads []WorkloadResult `json:"workloads"`
}

func readResultFile(path string) (*ResultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f ResultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *ResultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// merge folds another run of the same workload into w: metric values are
// appended per name, counts add up, and one incorrect run taints the lot.
func (w *WorkloadResult) merge(o WorkloadResult) {
	w.Correct = w.Correct && o.Correct
	w.Attempted += o.Attempted
	w.Failed += o.Failed
	w.EndToEnd = mergeMetrics(w.EndToEnd, o.EndToEnd)
	w.PerLayer = mergeMetrics(w.PerLayer, o.PerLayer)
	for k, v := range o.Notes {
		if w.Notes == nil {
			w.Notes = map[string]string{}
		}
		w.Notes[k] = v
	}
}

// findMetric returns the metric of that name in the list, or nil.
func findMetric(list []Metric, name string) *Metric {
	for i := range list {
		if list[i].Name == name {
			return &list[i]
		}
	}
	return nil
}

func mergeMetrics(dst, src []Metric) []Metric {
	for _, m := range src {
		if have := findMetric(dst, m.Name); have != nil {
			have.Values = append(have.Values, m.Values...)
			have.N = m.N
		} else {
			dst = append(dst, m)
		}
	}
	return dst
}

// run is one workload run in progress: its generated-input seed, its size,
// whether it is the traced pass, and what it has reported so far.
type run struct {
	spec     *Spec
	workload string
	seed     int64
	// scale is the run's size relative to the 10-second reference run; every
	// request count and pass length is multiplied by it.
	scale  float64
	traced bool
	spans  *spanLog
	// program is the program's own trace report from the traced end-to-end
	// call, written out beside the benchmark's spans.
	program *trace.Report
	log     io.Writer

	res     WorkloadResult
	metrics []Metric
}

func newRun(spec *Spec, workload string, seed int64, seconds float64, traced bool, log io.Writer) *run {
	r := &run{
		spec: spec, workload: workload, seed: seed, scale: seconds / 10,
		traced: traced, log: log,
		res: WorkloadResult{Workload: workload, Correct: true, Notes: map[string]string{}},
	}
	if traced {
		r.spans = newSpanLog(workload)
	}
	return r
}

// n scales a reference count to the run's size, never below floor.
func (r *run) n(ref, floor int) int {
	v := int(math.Round(float64(ref) * r.scale))
	if v < floor {
		return floor
	}
	return v
}

// put reports a metric. The name must be declared in BENCHMARK.json, which
// also supplies the unit; samples is the sample count behind the value (0
// when that is not meaningful). Every metric is reported once per run.
func (r *run) put(name string, value float64, samples int) {
	m, ok := r.spec.lookup(name)
	if !ok {
		panic("bench: metric " + name + " is not declared in BENCHMARK.json")
	}
	if findMetric(r.metrics, name) != nil {
		panic("bench: metric " + name + " reported twice")
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.failf("metric %s is not finite (%v)", name, value)
		value = 0
	}
	r.metrics = append(r.metrics, Metric{Name: name, Unit: m.Unit, Values: []float64{value}, N: samples})
	line := fmt.Sprintf("%-22s %-30s %s %s", r.workload, name, strconv.FormatFloat(value, 'g', 6, 64), m.Unit)
	if samples > 0 {
		line += fmt.Sprintf("  (n=%d)", samples)
	}
	fmt.Fprintln(r.log, line)
}

// failf marks the run's outputs as wrong, loudly.
func (r *run) failf(format string, args ...any) {
	r.res.Correct = false
	fmt.Fprintf(os.Stderr, "bench: %s: CHECK FAILED: %s\n", r.workload, fmt.Sprintf(format, args...))
}

// count adds operations attempted and failed. A failure is an error, a wrong
// output, or an operation that never completed.
func (r *run) count(attempted, failed int64) {
	r.res.Attempted += attempted
	r.res.Failed += failed
}

// note records an exact, non-numeric output such as a result hash.
func (r *run) note(key, value string) {
	r.res.Notes[key] = value
	fmt.Fprintf(r.log, "%-22s %-30s %s\n", r.workload, key, value)
}

// finish closes the run: every metric of the run's kind that the workload
// did not report is filled in as 0 (a layer metric that does not apply to
// this workload), and anything failed makes the run incorrect.
func (r *run) finish() WorkloadResult {
	want := r.spec.metrics(r.traced)
	ordered := make([]Metric, 0, len(want))
	for _, m := range want {
		if have := findMetric(r.metrics, m.Name); have != nil {
			ordered = append(ordered, *have)
			continue
		}
		if !r.traced {
			r.failf("end-to-end metric %s was not measured", m.Name)
		}
		ordered = append(ordered, Metric{Name: m.Name, Unit: m.Unit, Values: []float64{0}})
	}
	if r.res.Failed > 0 {
		r.res.Correct = false
	}
	if r.res.Attempted < 1 {
		r.res.Attempted = 1
	}
	if r.traced {
		r.res.PerLayer = ordered
	} else {
		r.res.EndToEnd = ordered
	}
	return r.res
}

// driverLine renders the one-line JSON object the driver reads from the last
// line of standard output.
func driverLine(res WorkloadResult, traced bool) string {
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := res.EndToEnd
	if traced {
		list = res.PerLayer
	}
	metrics := map[string]reading{}
	for _, m := range list {
		metrics[m.Name] = reading{Value: m.Values[len(m.Values)-1], Unit: m.Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err)
	}
	return string(out)
}

// --- small statistics helpers -------------------------------------------

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's statistics.quantiles(n=4)
// gives (the exclusive method). It needs two values; fewer give 0.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return math.Abs((q(3) - q(1)) / med)
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// us converts a duration to microseconds with its sub-microsecond digits.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
