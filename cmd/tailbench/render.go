package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"tailbench"
	"tailbench/sweep"
)

// There is one renderer per result document. A run prints its result with
// it, and report -input prints a saved one with the same function, so the
// live and replayed views are the same bytes.

// runReport implements the report subcommand: the suite's reference
// information (Table I domains, the Table II system, and optionally
// per-application calibration summaries), or with -input a saved result.
func runReport(args []string) {
	fs := newFlagSet("report")
	var (
		calibrate = fs.Bool("calibrate", false, "measure per-application service-time summaries (slower)")
		scale     = fs.Float64("scale", 0.05, "application dataset scale used for calibration")
		input     = fs.String("input", "", "render a saved JSON result instead of the reference report")
	)
	fs.Parse(args)

	if *input != "" {
		if err := reportFromFile(*input); err != nil {
			fatal(1, err)
		}
		return
	}

	fmt.Println("TailBench-Go application suite")
	fmt.Println()
	fmt.Printf("%-10s %s\n", "app", "domain")
	for _, app := range tailbench.Apps() {
		fmt.Printf("%-10s %s\n", app, sweep.Domain(app))
	}
	fmt.Println()
	fmt.Println("Simulated system (Table II):", tailbench.SystemDescription())

	if !*calibrate {
		return
	}
	fmt.Println()
	fmt.Printf("%-10s %-14s %-14s %-14s %s\n", "app", "mean_service", "p95_service", "p99_service", "saturation_qps(1 thread)")
	for _, app := range tailbench.Apps() {
		opts := sweep.Quick()
		opts.Scale = *scale
		cal, err := sweep.Calibrate(app, opts)
		if err != nil {
			fatal(1, err)
		}
		fmt.Printf("%-10s %-14v %-14v %-14v %.0f\n", app,
			cal.Service.Mean.Round(time.Microsecond),
			cal.Service.P95.Round(time.Microsecond),
			cal.Service.P99.Round(time.Microsecond),
			cal.SaturationQPS)
	}
}

// reportFromFile renders a saved JSON result with its document's renderer.
func reportFromFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	doc, err := decodeResult(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	switch res := doc.(type) {
	case *tailbench.PipelineResult:
		printPipelineResult(res)
	case *tailbench.ClusterResult:
		printClusterResult(res)
	case *tailbench.Result:
		printResult(res)
	}
	return nil
}

// decodeResult identifies which of the three result documents data holds and
// returns it as a *tailbench.PipelineResult (identified by its tier chain),
// *tailbench.ClusterResult (by its per-replica breakdown), or
// *tailbench.Result (by its application name). Every field of a result is
// optional to encoding/json, so any JSON object decodes into all three; a
// document that carries none of the identifying fields — {}, a grid -jsonl
// row, some other tool's output — is an error, not an all-zero single-server
// report.
func decodeResult(data []byte) (any, error) {
	var pipe tailbench.PipelineResult
	if err := json.Unmarshal(data, &pipe); err == nil && len(pipe.Tiers) > 0 {
		return &pipe, nil
	}
	var cluster tailbench.ClusterResult
	if err := json.Unmarshal(data, &cluster); err == nil && cluster.Policy != "" && len(cluster.PerReplica) > 0 {
		return &cluster, nil
	}
	var single tailbench.Result
	if err := json.Unmarshal(data, &single); err != nil {
		return nil, fmt.Errorf("parsing result: %w", err)
	}
	if single.App == "" {
		return nil, errors.New("not a tailbench result: no Tiers (pipeline), no PerReplica (cluster), and no App (single-server run)")
	}
	return &single, nil
}

// printLatencyRow prints one latency stream of the aggregate summary.
func printLatencyRow(name string, s tailbench.LatencyStats) {
	fmt.Printf("%-8s mean=%-12v p50=%-12v p95=%-12v p99=%-12v max=%v\n",
		name, s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
		s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond))
}

// printShape prints the load-shape line of a time-varying run.
func printShape(shape, spec string) {
	if shape != "" && shape != "constant" {
		fmt.Printf("load shape  : %s\n", spec)
	}
}

// printTail renders what follows every result's header: the windowed
// latency series, the table (per replica or per tier) when there is one,
// and the tail-attribution breakdown of a traced run.
func printTail(windows []tailbench.WindowStats, table func(), rep *tailbench.TraceReport) {
	if len(windows) > 0 {
		fmt.Println()
		tailbench.WriteWindowTable(os.Stdout, windows)
	}
	if table != nil {
		fmt.Println()
		table()
	}
	if rep != nil && len(rep.Slowest) > 0 {
		fmt.Println()
		tailbench.WriteTraceAttribution(os.Stdout, rep)
	}
}

func printResult(res *tailbench.Result) {
	fmt.Printf("app         : %s\n", res.App)
	fmt.Printf("mode        : %s\n", res.Mode)
	printShape(res.Shape, res.ShapeSpec)
	fmt.Printf("threads     : %d\n", res.Threads)
	fmt.Printf("offered QPS : %.1f\n", res.OfferedQPS)
	fmt.Printf("achieved QPS: %.1f\n", res.AchievedQPS)
	fmt.Printf("requests    : %d (errors %d, runs %d)\n", res.Requests, res.Errors, res.Runs)
	printLatencyRow("queue", res.Queue)
	printLatencyRow("service", res.Service)
	printLatencyRow("sojourn", res.Sojourn)
	if res.Runs > 1 {
		fmt.Printf("p95 95%% CI  : ±%.2f%%\n", res.P95CIRelative*100)
	}
	printTail(res.Windows, nil, res.Trace)
}

func printClusterResult(res *tailbench.ClusterResult) {
	fmt.Printf("app         : %s\n", res.App)
	fmt.Printf("mode        : cluster/%s\n", res.Mode)
	printShape(res.Shape, res.ShapeSpec)
	fmt.Printf("policy      : %s\n", res.Policy)
	if len(res.ThreadsPer) > 0 {
		fmt.Printf("replicas    : %d, threads %v\n", res.Replicas, res.ThreadsPer)
	} else {
		fmt.Printf("replicas    : %d x %d threads\n", res.Replicas, res.Threads)
	}
	if res.Controller != "" {
		fmt.Printf("autoscale   : %s [%d..%d], tick %v\n",
			res.Controller, res.MinReplicas, res.MaxReplicas, res.ControlInterval)
		fmt.Printf("elasticity  : peak %d replicas, %.1f replica-seconds, %d scaling events\n",
			res.PeakReplicas, res.ReplicaSeconds, len(res.ScalingEvents))
	}
	fmt.Printf("offered QPS : %.1f\n", res.OfferedQPS)
	fmt.Printf("achieved QPS: %.1f\n", res.AchievedQPS)
	fmt.Printf("requests    : %d (errors %d)\n", res.Requests, res.Errors)
	printLatencyRow("queue", res.Queue)
	printLatencyRow("service", res.Service)
	printLatencyRow("sojourn", res.Sojourn)
	printTail(res.Windows, func() { res.WriteReplicaTable(os.Stdout) }, res.Trace)
}

func printPipelineResult(res *tailbench.PipelineResult) {
	fmt.Printf("topology    : %s\n", res.Label)
	fmt.Printf("mode        : pipeline/%s\n", res.Mode)
	printShape(res.Shape, res.ShapeSpec)
	fmt.Printf("offered QPS : %.1f (root requests)\n", res.OfferedQPS)
	fmt.Printf("achieved QPS: %.1f\n", res.AchievedQPS)
	fmt.Printf("requests    : %d (errors %d)\n", res.Requests, res.Errors)
	s := res.Sojourn
	fmt.Printf("end-to-end  : mean=%-12v p50=%-12v p95=%-12v p99=%-12v max=%v\n",
		s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
		s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond))
	printTail(res.Windows, func() {
		res.WriteTierTable(os.Stdout)
		printHedgeLedger(res)
		for _, t := range res.Tiers {
			if t.Controller != "" {
				fmt.Printf("\n%s autoscale: %s [%d..%d], tick %v — peak %d replicas, %.1f replica-seconds, %d scaling events\n",
					t.Name, t.Controller, t.MinReplicas, t.MaxReplicas, t.ControlInterval,
					t.PeakReplicas, t.ReplicaSeconds, len(t.ScalingEvents))
			}
		}
	}, res.Trace)
}

// printHedgeLedger renders the hedging ledger of every hedged edge: how many
// duplicates the edge issued, how many won their race, and the extra-traffic
// fraction the tail improvement was bought with (duplicates over the tier's
// measured sub-requests — redundant hedge work is real capacity spent).
func printHedgeLedger(res *tailbench.PipelineResult) {
	printed := false
	for _, t := range res.Tiers {
		if t.HedgeDelay <= 0 {
			continue
		}
		if !printed {
			fmt.Println()
			fmt.Println("hedging ledger:")
			printed = true
		}
		extra, winRate := 0.0, 0.0
		if t.Requests > 0 {
			extra = float64(t.HedgesIssued) / float64(t.Requests)
		}
		if t.HedgesIssued > 0 {
			winRate = float64(t.HedgeWins) / float64(t.HedgesIssued)
		}
		fmt.Printf("  %s: budget %v — %d duplicates issued (%.1f%% extra traffic), %d won the race (%.1f%%)\n",
			t.Name, t.HedgeDelay, t.HedgesIssued, 100*extra, t.HedgeWins, 100*winRate)
	}
}
