package main

import (
	"flag"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tailbench"
	"tailbench/sweep"
)

// This file holds every flag grammar richer than one value: the cluster
// -threads and -slow vectors, the pipeline -tiers/-fanout/-hedge chain, and
// the grid axis lists grid and plan share. fuzz_test.go fuzzes each one.

// splitList splits a separator-joined flag value, dropping empty tokens.
func splitList(s, sep string) []string {
	var out []string
	for _, tok := range strings.Split(s, sep) {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// parseThreadsSpec parses the cluster -threads flag: a single count applies
// to every replica; a comma-separated vector assigns per-replica counts (the
// vector length must equal the replica pool, which RunCluster validates).
// The homogeneous base count for a vector is its maximum, so shared
// resources sized off Threads fit the largest replica.
func parseThreadsSpec(s string) (int, []int, error) {
	parts := strings.Split(s, ",")
	if len(parts) == 1 {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return 0, nil, fmt.Errorf("bad -threads count %q", s)
		}
		return n, nil, nil
	}
	per := make([]int, len(parts))
	max := 1
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return 0, nil, fmt.Errorf("bad -threads entry %q", p)
		}
		per[i] = n
		if n > max {
			max = n
		}
	}
	return max, per, nil
}

// parseSlowdowns turns "0:3,2:1.5" into a dense per-replica factor slice.
func parseSlowdowns(s string, replicas int) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := make([]float64, replicas)
	for i := range out {
		out[i] = 1
	}
	seen := make(map[int]bool, replicas)
	for _, pair := range strings.Split(s, ",") {
		idxStr, facStr, ok := strings.Cut(strings.TrimSpace(pair), ":")
		if !ok {
			return nil, fmt.Errorf("bad -slow entry %q (want index:factor)", pair)
		}
		idx, err := strconv.Atoi(idxStr)
		if err != nil || idx < 0 || idx >= replicas {
			return nil, fmt.Errorf("bad -slow replica index %q (cluster has %d replicas)", idxStr, replicas)
		}
		if seen[idx] {
			return nil, fmt.Errorf("duplicate -slow entry %q for replica %d", pair, idx)
		}
		seen[idx] = true
		fac, err := strconv.ParseFloat(facStr, 64)
		if err != nil || math.IsNaN(fac) || math.IsInf(fac, 0) || fac < 1 {
			return nil, fmt.Errorf("bad -slow factor %q (want a finite number >= 1)", facStr)
		}
		out[idx] = fac
	}
	return out, nil
}

// parseTiers turns "-tiers xapian:2,masstree:16 -fanout 16 -hedge 500us"
// into the tier chain. Edge vectors (-fanout, -hedge) cover tiers 1..N-1; a
// single value broadcasts to every edge.
func parseTiers(tiersArg, fanoutArg, hedgeArg, policy string, scale float64) ([]tailbench.TierSpec, error) {
	if tiersArg == "" {
		return nil, fmt.Errorf("bad -tiers %q: name at least one tier", tiersArg)
	}
	entries := strings.Split(tiersArg, ",")
	fanouts, err := parseEdgeInts(fanoutArg, len(entries)-1)
	if err != nil {
		return nil, fmt.Errorf("bad -fanout: %w", err)
	}
	hedges, err := parseEdgeHedges(hedgeArg, len(entries)-1)
	if err != nil {
		return nil, fmt.Errorf("bad -hedge: %w", err)
	}
	tiers := make([]tailbench.TierSpec, 0, len(entries))
	for i, entry := range entries {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("bad -tiers entry %q (want app:replicas[:threads])", entry)
		}
		replicas, err := strconv.Atoi(parts[1])
		if err != nil || replicas < 1 {
			return nil, fmt.Errorf("bad -tiers replica count %q", parts[1])
		}
		threads := 1
		if len(parts) == 3 {
			threads, err = strconv.Atoi(parts[2])
			if err != nil || threads < 1 {
				return nil, fmt.Errorf("bad -tiers thread count %q", parts[2])
			}
		}
		t := tailbench.TierSpec{Cluster: tailbench.ClusterSpec{
			App: parts[0], Policy: policy, Replicas: replicas, Threads: threads, Scale: scale,
		}}
		if i > 0 {
			t.FanOut = fanouts[i-1]
			t.Hedge = hedges[i-1]
		}
		tiers = append(tiers, t)
	}
	return tiers, nil
}

// edgeValues splits an edge vector of length edges: nil when s is empty or
// there are no edges, and one value broadcasts to every edge.
func edgeValues(s string, edges int) ([]string, error) {
	if s == "" || edges == 0 {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 1 && len(parts) != edges {
		return nil, fmt.Errorf("%q has %d values for %d edges", s, len(parts), edges)
	}
	out := make([]string, edges)
	for i := range out {
		out[i] = strings.TrimSpace(parts[min(i, len(parts)-1)])
	}
	return out, nil
}

// parseEdgeInts parses a comma-separated int vector of length edges; empty
// means all-1 and a single value broadcasts.
func parseEdgeInts(s string, edges int) ([]int, error) {
	vals, err := edgeValues(s, edges)
	if err != nil {
		return nil, err
	}
	out := make([]int, edges)
	for i := range out {
		out[i] = 1
		if vals == nil {
			continue
		}
		v, err := strconv.Atoi(vals[i])
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad degree %q", vals[i])
		}
		out[i] = v
	}
	return out, nil
}

// parseEdgeHedges parses the -hedge edge vector of length edges: each entry
// is a plain duration budget, or "rtt-floor+<duration>" to anchor the budget
// on the edge's observed round-trip floor. Empty or "0" disables hedging on
// that edge, and a single value broadcasts.
func parseEdgeHedges(s string, edges int) ([]*tailbench.HedgeSpec, error) {
	vals, err := edgeValues(s, edges)
	if err != nil {
		return nil, err
	}
	out := make([]*tailbench.HedgeSpec, edges)
	for i, p := range vals {
		if p == "0" || p == "" {
			continue
		}
		rest, rttFloor := strings.CutPrefix(p, "rtt-floor+")
		d, err := time.ParseDuration(rest)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad hedge %q", rest)
		}
		out[i] = &tailbench.HedgeSpec{Delay: d, RTTFloor: rttFloor}
	}
	return out, nil
}

// parseShapes parses the -shapes grid axis: semicolon-separated load shapes,
// "const" meaning steady arrivals (a nil shape).
func parseShapes(s string) ([]tailbench.LoadShape, error) {
	var out []tailbench.LoadShape
	for _, spec := range splitList(s, ";") {
		var shape tailbench.LoadShape
		if spec != "const" {
			var err error
			if shape, err = tailbench.ParseLoadShape(spec); err != nil {
				return nil, fmt.Errorf("bad -shapes entry %q: %w", spec, err)
			}
		}
		out = append(out, shape)
	}
	return out, nil
}

// parseFanouts parses the -fanouts grid axis: comma-separated degrees >= 1.
func parseFanouts(s string) ([]int, error) {
	var out []int
	for _, tok := range splitList(s, ",") {
		k, err := strconv.Atoi(tok)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("bad fan-out %q", tok)
		}
		out = append(out, k)
	}
	return out, nil
}

// gridFlags is the grid-axis and per-cell flag set that grid and plan share.
// The scalar flags bind straight into the config; the axis lists are parsed
// by config.
type gridFlags struct {
	policies, shapes, controllers, fanouts string
	cfg                                    sweep.GridConfig
}

// addGridFlags registers the shared grid flags; window is the subcommand's
// -window default.
func addGridFlags(fs *flag.FlagSet, window time.Duration) *gridFlags {
	g := &gridFlags{}
	fs.StringVar(&g.policies, "policies", "leastq", "comma-separated balancer policies")
	fs.StringVar(&g.shapes, "shapes", "const", "semicolon-separated load shapes (\"const\" = steady arrivals at 70% capacity; others per tailbench.ParseLoadShape)")
	fs.StringVar(&g.controllers, "controllers", "static", "comma-separated autoscaling controllers (\"static\" = fixed replica set)")
	fs.StringVar(&g.fanouts, "fanouts", "1", "comma-separated fan-out degrees (1 = single cluster, k>1 = front+shards pipeline)")
	fs.IntVar(&g.cfg.Replicas, "replicas", 4, "replicas in the serving cluster, which set the offered load (front tier for fan-out cells)")
	fs.IntVar(&g.cfg.Threads, "threads", 1, "threads per replica")
	fs.IntVar(&g.cfg.Requests, "requests", 400, "measured requests per cell")
	fs.IntVar(&g.cfg.Warmup, "warmup", 0, "warmup requests per cell (0 = 10% of requests, negative = none)")
	fs.IntVar(&g.cfg.Reps, "reps", 1, "replications per cell, each with a distinct derived seed (plan: feasibility requires every rep to hold the SLO)")
	fs.Int64Var(&g.cfg.Seed, "seed", 1, "root seed; per-cell seeds are split from it by cell coordinates")
	fs.IntVar(&g.cfg.Workers, "workers", runtime.GOMAXPROCS(0), "parallel workers (output is identical for any value)")
	fs.DurationVar(&g.cfg.ServiceMean, "service-mean", time.Millisecond, "mean of the synthetic exponential service-time distribution")
	fs.DurationVar(&g.cfg.Window, "window", window, "windowed latency accounting width (0 = automatic for time-varying shapes; plan needs it positive, as SLO verdicts are windowed)")
	return g
}

// config returns the grid the flags describe.
func (g *gridFlags) config() sweep.GridConfig {
	cfg := g.cfg
	cfg.Axes.Policies = splitList(g.policies, ",")
	cfg.Axes.Controllers = splitList(g.controllers, ",")
	var err error
	if cfg.Axes.Shapes, err = parseShapes(g.shapes); err != nil {
		fatal(2, err)
	}
	if cfg.Axes.FanOuts, err = parseFanouts(g.fanouts); err != nil {
		fatal(2, err)
	}
	return cfg
}
