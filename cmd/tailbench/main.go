// Command tailbench is the suite's one CLI. Each subcommand is one kind of
// study; run is the default when the first argument is a flag, so
// `tailbench -app …` measures a single server.
//
//	tailbench [run]     one application under one harness configuration
//	tailbench cluster   a multi-replica deployment behind a load balancer
//	tailbench pipeline  chained clusters with fan-out/fan-in edges and hedging
//	tailbench grid      a policy × shape × controller × fan-out simulation grid
//	tailbench plan      the cheapest SLO-feasible configuration of such a grid
//	tailbench sweep     the data series behind the paper's tables and figures
//	tailbench report    the reference report, or a saved -json result
//
// Examples:
//
//	tailbench -app masstree -mode integrated -qps 2000 -threads 2 -requests 5000
//	tailbench cluster -app masstree -policy jsq2 -replicas 4 -qps 8000 -slow 0:3
//	tailbench cluster -app xapian -mode simulated -replicas 2 \
//	  -autoscale threshold -max-replicas 8 -shape spike:1000,6000,2s,2s
//	tailbench pipeline -mode simulated -tiers xapian:2,xapian:16 \
//	  -fanout 16 -hedge 500us -qps 2000
//	tailbench grid -policies random,roundrobin,leastq,jsq2 \
//	  -shapes 'const;diurnal:500,300,10s;spike:500,1500,5s,2s' \
//	  -controllers static,threshold,target-p95 -fanouts 1,8,16 \
//	  -reps 10 -csv grid.csv -jsonl grid.jsonl
//	tailbench plan -policies leastq,random -fanouts 1,4 \
//	  -slo 20ms -max-replicas 16 -csv frontier.csv -json frontier.json
//	tailbench sweep -experiment fig8 -app moses
//	tailbench report -input out.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"tailbench"
)

// subcommands maps each subcommand name to its entry point.
var subcommands = map[string]func(args []string){
	"run":      runSingle,
	"cluster":  runCluster,
	"pipeline": runPipeline,
	"grid":     runGrid,
	"plan":     runPlan,
	"sweep":    runSweep,
	"report":   runReport,
}

func main() {
	name, args := "run", os.Args[1:]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	sub, ok := subcommands[name]
	if !ok {
		fatal(2, fmt.Errorf("unknown subcommand %q (want run, cluster, pipeline, grid, plan, sweep or report)", name))
	}
	sub(args)
}

// newFlagSet returns the flag set of one subcommand.
func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet("tailbench "+name, flag.ExitOnError)
}

// fatal reports err and exits with code: 2 for a bad flag value, 1 for a
// failed run.
func fatal(code int, err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "tailbench:") {
		msg = "tailbench: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(code)
}

// writeTo streams write to the named file, or stdout for "-".
func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSON writes v as indented JSON to path ("-" means stdout).
func writeJSON(path string, v any) error {
	return writeTo(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// sink is one requested output file ("-" = stdout) and what to write there.
type sink struct {
	path  string
	write func(io.Writer) error
}

// writeSinks writes every requested sink in order; when none was requested,
// fallback goes to stdout.
func writeSinks(fallback func(io.Writer) error, sinks ...sink) {
	wrote := false
	for _, s := range sinks {
		if s.path == "" {
			continue
		}
		if err := writeTo(s.path, s.write); err != nil {
			fatal(1, err)
		}
		wrote = true
	}
	if !wrote {
		if err := fallback(os.Stdout); err != nil {
			fatal(1, err)
		}
	}
}

// profOpts groups the profiling flags, so a hot path found in a sweep can be
// pinned down without writing a benchmark.
type profOpts struct {
	cpuPath string
	memPath string
}

// addProfFlags registers the profiling flags on a flag set.
func addProfFlags(fs *flag.FlagSet) *profOpts {
	o := &profOpts{}
	fs.StringVar(&o.cpuPath, "cpuprofile", "", "write a CPU profile of the run to this file (inspect with `go tool pprof`)")
	fs.StringVar(&o.memPath, "memprofile", "", "write a heap profile (taken after the run) to this file")
	return o
}

// start begins CPU profiling if requested; the returned stop function
// flushes the CPU profile and takes the post-run heap profile.
func (o *profOpts) start() func() {
	var cpuFile *os.File
	if o.cpuPath != "" {
		f, err := os.Create(o.cpuPath)
		if err != nil {
			fatal(1, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(1, err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if o.memPath != "" {
			runtime.GC()
			if err := writeTo(o.memPath, pprof.WriteHeapProfile); err != nil {
				fatal(1, fmt.Errorf("writing heap profile: %w", err))
			}
		}
	}
}

// obsOpts groups the observability flags of the measuring subcommands: the
// Chrome trace export, the tail-attribution reservoir size, the live metrics
// endpoint, and the progress-line interval.
type obsOpts struct {
	tracePath   string
	topK        int
	traceWindow time.Duration
	metricsAddr string
	progress    time.Duration
}

// addObsFlags registers the observability flags on a flag set.
func addObsFlags(fs *flag.FlagSet) *obsOpts {
	o := &obsOpts{}
	fs.StringVar(&o.tracePath, "trace", "", "enable request tracing and write the retained span trees as Chrome trace-event JSON to this file (load in Perfetto)")
	fs.IntVar(&o.topK, "trace-topk", 0, "slowest span trees retained per window (implies tracing; 0 with -trace = 8)")
	fs.DurationVar(&o.traceWindow, "trace-window", 0, "tail-attribution window width (0 = whole run as one window)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve live metrics over HTTP on this address (/metrics Prometheus text, /debug/vars expvar JSON)")
	fs.DurationVar(&o.progress, "progress", 0, "print a live metrics progress line to stderr at this interval (0 = off)")
	return o
}

// spec returns the TraceSpec implied by the flags; nil when tracing is off.
func (o *obsOpts) spec() *tailbench.TraceSpec {
	if o.tracePath == "" && o.topK <= 0 {
		return nil
	}
	return &tailbench.TraceSpec{TopK: o.topK, Window: o.traceWindow}
}

// start brings up the live metrics surface implied by the flags: the HTTP
// endpoint and/or the progress printer. It returns the registry to attach to
// the spec (nil when neither flag was set) and a stop function.
func (o *obsOpts) start() (*tailbench.MetricsRegistry, func()) {
	if o.metricsAddr == "" && o.progress <= 0 {
		return nil, func() {}
	}
	reg := tailbench.NewMetricsRegistry()
	var stops []func()
	if o.metricsAddr != "" {
		srv, err := tailbench.ServeMetrics(o.metricsAddr, reg)
		if err != nil {
			fatal(1, fmt.Errorf("serving metrics: %w", err))
		}
		fmt.Fprintf(os.Stderr, "tailbench: serving live metrics on http://%s/metrics\n", srv.Addr())
		stops = append(stops, func() { srv.Close() })
	}
	if o.progress > 0 {
		stop := tailbench.StartMetricsProgress(reg, o.progress, func(line string) {
			fmt.Fprintln(os.Stderr, line)
		})
		stops = append(stops, stop)
	}
	return reg, func() {
		for _, s := range stops {
			s()
		}
	}
}

// finish writes the Chrome trace export if one was requested.
func (o *obsOpts) finish(rep *tailbench.TraceReport) {
	if rep == nil || o.tracePath == "" {
		return
	}
	if err := writeTo(o.tracePath, func(w io.Writer) error {
		return tailbench.WriteChromeTrace(w, rep.Slowest)
	}); err != nil {
		fatal(1, fmt.Errorf("writing trace: %w", err))
	}
	fmt.Fprintf(os.Stderr, "tailbench: wrote %d span trees to %s (open in ui.perfetto.dev)\n", len(rep.Slowest), o.tracePath)
}
