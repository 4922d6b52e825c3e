package main

import (
	"fmt"
	"os"
	"time"

	"tailbench/internal/plan"
	"tailbench/sweep"
)

// runGrid implements the grid subcommand: a policy × shape × controller ×
// fan-out grid fanned across parallel workers, every cell an independent
// deterministic simulation. Per-cell seeds derive from the root seed and the
// cell index alone, so the merged CSV/JSONL output is byte-identical whether
// the grid ran on one worker or sixteen.
func runGrid(args []string) {
	fs := newFlagSet("grid")
	g := addGridFlags(fs, 0)
	fs.IntVar(&g.cfg.ShardReplicas, "shard-replicas", 8, "replicas in the shard tier of fan-out cells")
	csvOut := fs.String("csv", "", "write the report table as CSV to this file (\"-\" for stdout)")
	jsonlOut := fs.String("jsonl", "", "write one SimReport JSON object per line to this file (\"-\" for stdout)")
	prof := addProfFlags(fs)
	fs.Parse(args)

	cfg := g.config()
	stopProf := prof.start()
	start := time.Now() //lint:allow simtime CLI progress reporting, not simulation state
	res, err := sweep.RunGrid(cfg)
	elapsed := time.Since(start) //lint:allow simtime CLI progress reporting, not simulation state
	stopProf()
	if err != nil {
		fatal(1, err)
	}
	writeSinks(res.WriteCSV, sink{*csvOut, res.WriteCSV}, sink{*jsonlOut, res.WriteJSONL})
	fmt.Fprintf(os.Stderr, "tailbench grid: %d cells in %v (%.0f cells/s, %d workers)\n",
		res.Cells, elapsed.Round(time.Millisecond), float64(res.Cells)/elapsed.Seconds(), cfg.Workers)
}

// runPlan implements the plan subcommand: the cheapest SLO-feasible
// configuration of a grid. Per axis tuple it bisects the replica range for
// the minimal feasible count, early-aborts probes whose running windowed p99
// has already blown the SLO, prunes tuples whose cheapest conceivable cost
// cannot beat the incumbent, and memoizes completed cells. The frontier (one
// row per tuple) goes to -csv/-json, byte-identical at any -workers value.
func runPlan(args []string) {
	fs := newFlagSet("plan")
	g := addGridFlags(fs, 25*time.Millisecond)
	var (
		slo        = fs.Duration("slo", 20*time.Millisecond, "latency SLO: peak windowed p99 a feasible configuration must stay under")
		minRepl    = fs.Int("min-replicas", 1, "replica search floor")
		maxRepl    = fs.Int("max-replicas", 16, "replica search ceiling")
		noAbort    = fs.Bool("disable-abort", false, "run every probe to completion (no SLO early abort)")
		noPrune    = fs.Bool("disable-prune", false, "never skip cost-dominated tuples")
		noMemo     = fs.Bool("disable-memo", false, "re-simulate frontier cells instead of reading the probe cache")
		exhaustive = fs.Bool("exhaustive", false, "scan the full replica range instead of searching (the correctness oracle)")
		study      = fs.Bool("study", false, "measure each optimization stage against the exhaustive baseline")
		jsonOut    = fs.String("json", "", "write the frontier result as JSON to this file (\"-\" for stdout)")
		csvOut     = fs.String("csv", "", "write the frontier table as CSV to this file (\"-\" for stdout)")
	)
	fs.Parse(args)

	cfg := plan.Config{
		Grid:         g.config(),
		SLO:          *slo,
		MinReplicas:  *minRepl,
		MaxReplicas:  *maxRepl,
		DisableAbort: *noAbort,
		DisablePrune: *noPrune,
		DisableMemo:  *noMemo,
	}
	var res *plan.Result
	switch {
	case *study:
		res = runStudy(cfg)
	case *exhaustive:
		res = runSearch(plan.Exhaustive, cfg)
	default:
		res = runSearch(plan.Run, cfg)
	}
	writeSinks(res.WriteCSV, sink{*jsonOut, res.WriteJSON}, sink{*csvOut, res.WriteCSV})
}

// runSearch runs one planner search and summarizes it on stderr.
func runSearch(search func(plan.Config) (*plan.Result, error), cfg plan.Config) *plan.Result {
	start := time.Now() //lint:allow simtime CLI progress reporting, not simulation state
	res, err := search(cfg)
	if err != nil {
		fatal(1, err)
	}
	elapsed := time.Since(start) //lint:allow simtime CLI progress reporting, not simulation state
	s := res.Stats
	if res.Best != nil {
		fmt.Fprintf(os.Stderr,
			"tailbench plan: best %s/%s/%s/k=%d at %d replicas (peak windowed p99 %v, %.4f replica-seconds)\n",
			res.Best.Policy, res.Best.Shape, res.Best.Controller, res.Best.FanOut,
			res.Best.Replicas, res.Best.PeakWindowP99, res.Best.ReplicaSeconds)
	} else {
		fmt.Fprintf(os.Stderr, "tailbench plan: no feasible configuration under SLO %v\n", res.SLO)
	}
	fmt.Fprintf(os.Stderr,
		"tailbench plan: %d/%d cells run (%d aborted, %d memoized, %d pruned), %d events simulated in %v\n",
		s.CellsRun, s.CellsTotal, s.CellsAborted, s.CellsMemoized, s.CellsPruned,
		s.EventsSimulated, elapsed.Round(time.Millisecond))
	return res
}

// runStudy measures the optimization stack stage by stage on the same search
// space — exhaustive scan, exhaustive with SLO abort, adaptive without
// memoization, fully adaptive — and returns the last stage's result. Every
// stage must agree on the optimum; the events-simulated column is what the
// stack buys. internal/plan's TestPlannerEventsReduction pins those counts.
func runStudy(cfg plan.Config) *plan.Result {
	stages := []struct {
		name   string
		run    func(plan.Config) (*plan.Result, error)
		mutate func(*plan.Config)
	}{
		{"exhaustive", plan.Exhaustive, func(c *plan.Config) { c.DisableAbort = true }},
		{"exhaustive-abort", plan.Exhaustive, func(c *plan.Config) {}},
		{"adaptive-nomemo", plan.Run, func(c *plan.Config) { c.DisableMemo = true }},
		{"adaptive", plan.Run, func(c *plan.Config) {}},
	}
	results := make([]*plan.Result, len(stages))
	for i, st := range stages {
		c := cfg
		st.mutate(&c)
		res, err := st.run(c)
		if err != nil {
			fatal(1, fmt.Errorf("stage %s: %w", st.name, err))
		}
		results[i] = res
	}
	base := results[0]
	for i, res := range results {
		if (res.Best == nil) != (base.Best == nil) ||
			(res.Best != nil && (res.Best.Tuple != base.Best.Tuple || res.Best.Replicas != base.Best.Replicas)) {
			fatal(1, fmt.Errorf("stage %s found a different optimum than the exhaustive baseline", stages[i].name))
		}
	}

	fmt.Fprintf(os.Stderr, "tailbench plan: study over %d tuples, replica range [%d, %d]\n",
		base.Stats.Tuples, cfg.MinReplicas, cfg.MaxReplicas)
	fmt.Fprintf(os.Stderr, "%-18s %14s %9s %10s %9s %10s %9s\n",
		"stage", "events", "speedup", "cells-run", "aborted", "memoized", "pruned")
	for i, res := range results {
		s := res.Stats
		fmt.Fprintf(os.Stderr, "%-18s %14d %8.1fx %10d %9d %10d %9d\n",
			stages[i].name, s.EventsSimulated,
			float64(base.Stats.EventsSimulated)/float64(s.EventsSimulated),
			s.CellsRun, s.CellsAborted, s.CellsMemoized, s.CellsPruned)
	}
	return results[len(results)-1]
}
