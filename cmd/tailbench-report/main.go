// Command tailbench-report prints the suite's reference information: the
// applications and their domains (Table I columns), the simulated system
// description (Table II), and per-application calibration summaries. With
// -input it instead renders a saved measurement result (as written by
// `tailbench ... -json` or `tailbench cluster ... -json`), including the
// per-replica breakdown when the result came from a cluster run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"tailbench"
	"tailbench/sweep"
)

func main() {
	var (
		calibrate = flag.Bool("calibrate", false, "measure per-application service-time summaries (slower)")
		scale     = flag.Float64("scale", 0.05, "application dataset scale used for calibration")
		input     = flag.String("input", "", "render a saved JSON result instead of the reference report")
	)
	flag.Parse()

	if *input != "" {
		if err := reportFromFile(*input); err != nil {
			fmt.Fprintln(os.Stderr, "tailbench-report:", err)
			os.Exit(1)
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
			fmt.Fprintln(os.Stderr, "tailbench-report:", err)
			os.Exit(1)
		}
		fmt.Printf("%-10s %-14v %-14v %-14v %.0f\n", app,
			cal.Service.Mean.Round(time.Microsecond),
			cal.Service.P95.Round(time.Microsecond),
			cal.Service.P99.Round(time.Microsecond),
			cal.SaturationQPS)
	}
}

// reportFromFile renders a saved JSON result: pipeline results get the
// per-tier rendering, cluster results the full replica table, and
// single-server results the aggregate summary.
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
		printPipelineReport(res)
	case *tailbench.ClusterResult:
		printClusterReport(res)
	case *tailbench.Result:
		printSingleReport(res)
	}
	return nil
}

// decodeResult identifies which of the three result documents data holds and
// returns it as a *tailbench.PipelineResult (identified by its tier chain),
// *tailbench.ClusterResult (by its per-replica breakdown), or
// *tailbench.Result (by its application name). Every field of a result is
// optional to encoding/json, so any JSON object decodes into all three; a
// document that carries none of the identifying fields — {}, a
// tailbench-grid -jsonl row, some other tool's output — is an error, not an
// all-zero single-server report.
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

func printSingleReport(res *tailbench.Result) {
	fmt.Println(res.String())
	if res.Shape != "" && res.Shape != "constant" {
		fmt.Printf("load shape: %s\n", res.ShapeSpec)
	}
	if len(res.Windows) > 0 {
		fmt.Println()
		tailbench.WriteWindowTable(os.Stdout, res.Windows)
	}
	printAttribution(res.Trace)
}

func printPipelineReport(res *tailbench.PipelineResult) {
	fmt.Printf("%s: %d-tier pipeline, %s mode\n", res.Label, len(res.Tiers), res.Mode)
	if res.Shape != "" && res.Shape != "constant" {
		fmt.Printf("load shape: %s\n", res.ShapeSpec)
	}
	fmt.Printf("offered %.1f root qps, achieved %.1f qps, %d requests (%d errors)\n",
		res.OfferedQPS, res.AchievedQPS, res.Requests, res.Errors)
	s := res.Sojourn
	fmt.Printf("end-to-end sojourn: mean=%v p50=%v p95=%v p99=%v max=%v\n",
		s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
		s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond))
	if len(res.Windows) > 0 {
		fmt.Println()
		tailbench.WriteWindowTable(os.Stdout, res.Windows)
	}
	fmt.Println()
	res.WriteTierTable(os.Stdout)
	printHedgeLedger(res)
	for _, t := range res.Tiers {
		if t.Controller != "" {
			fmt.Printf("\n%s autoscale: %s [%d..%d], tick %v — peak %d replicas, %.1f replica-seconds, %d scaling events\n",
				t.Name, t.Controller, t.MinReplicas, t.MaxReplicas, t.ControlInterval,
				t.PeakReplicas, t.ReplicaSeconds, len(t.ScalingEvents))
		}
	}
	printAttribution(res.Trace)
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

// printAttribution renders the tail-attribution report of a traced result.
func printAttribution(rep *tailbench.TraceReport) {
	if rep == nil || len(rep.Slowest) == 0 {
		return
	}
	fmt.Println()
	tailbench.WriteTraceAttribution(os.Stdout, rep)
}

func printClusterReport(res *tailbench.ClusterResult) {
	threads := fmt.Sprintf("%d threads each", res.Threads)
	if len(res.ThreadsPer) > 0 {
		threads = fmt.Sprintf("threads %v", res.ThreadsPer)
	}
	fmt.Printf("%s: %d-replica cluster (%s), %s balancing, %s mode\n",
		res.App, res.Replicas, threads, res.Policy, res.Mode)
	if res.Shape != "" && res.Shape != "constant" {
		fmt.Printf("load shape: %s\n", res.ShapeSpec)
	}
	if res.Controller != "" {
		fmt.Printf("autoscale: %s controller [%d..%d replicas], tick %v\n",
			res.Controller, res.MinReplicas, res.MaxReplicas, res.ControlInterval)
		fmt.Printf("elasticity: peak %d replicas, %.1f replica-seconds, %d scaling events\n",
			res.PeakReplicas, res.ReplicaSeconds, len(res.ScalingEvents))
	}
	fmt.Printf("offered %.1f qps, achieved %.1f qps, %d requests (%d errors)\n",
		res.OfferedQPS, res.AchievedQPS, res.Requests, res.Errors)
	fmt.Printf("sojourn: mean=%v p50=%v p95=%v p99=%v max=%v\n",
		res.Sojourn.Mean.Round(time.Microsecond), res.Sojourn.P50.Round(time.Microsecond),
		res.Sojourn.P95.Round(time.Microsecond), res.Sojourn.P99.Round(time.Microsecond),
		res.Sojourn.Max.Round(time.Microsecond))
	if len(res.Windows) > 0 {
		fmt.Println()
		tailbench.WriteWindowTable(os.Stdout, res.Windows)
	}
	fmt.Println()
	res.WriteReplicaTable(os.Stdout)
	printAttribution(res.Trace)
}
