package main

import (
	"fmt"
	"strings"
	"time"

	"tailbench"
)

// runSingle implements the run subcommand: one application under one
// harness configuration.
func runSingle(args []string) {
	fs := newFlagSet("run")
	var (
		appName  = fs.String("app", "masstree", "application to run ("+strings.Join(tailbench.Apps(), ", ")+")")
		mode     = fs.String("mode", "integrated", "harness configuration: integrated, loopback, networked, simulated")
		qps      = fs.Float64("qps", 1000, "offered load in queries per second (0 = saturation)")
		shapeArg = fs.String("shape", "", "time-varying load shape, e.g. diurnal:500,300,10s or spike:500,1500,5s,2s (overrides -qps; see tailbench.ParseLoadShape)")
		window   = fs.Duration("window", 0, "windowed latency accounting width (0 = automatic for time-varying shapes)")
		threads  = fs.Int("threads", 1, "application worker threads")
		clients  = fs.Int("clients", 0, "client connections for loopback/networked modes (0 = auto)")
		requests = fs.Int("requests", 2000, "measured requests")
		warmup   = fs.Int("warmup", 0, "warmup requests (0 = 10% of requests, negative = none)")
		scale    = fs.Float64("scale", 1.0, "application dataset scale")
		seed     = fs.Int64("seed", 1, "random seed")
		repeats  = fs.Int("repeats", 1, "repeated runs with fresh seeds")
		validate = fs.Bool("validate", false, "validate every response")
		netDelay = fs.Duration("net-delay", 25*time.Microsecond, "one-way synthetic network delay (networked mode)")
		ideal    = fs.Bool("idealmem", false, "idealized memory system (simulated mode)")
		jsonOut  = fs.String("json", "", "write the full result as JSON to this file (\"-\" for stdout)")
		obs      = addObsFlags(fs)
		prof     = addProfFlags(fs)
	)
	fs.Parse(args)

	m, shape := parseModeShape(*mode, *shapeArg)
	reg, stopObs := obs.start()
	stopProf := prof.start()
	res, err := tailbench.Run(tailbench.RunSpec{
		App:          *appName,
		Mode:         m,
		QPS:          *qps,
		Load:         shape,
		Window:       *window,
		Threads:      *threads,
		Clients:      *clients,
		Requests:     *requests,
		Warmup:       *warmup,
		Scale:        *scale,
		Seed:         *seed,
		Repeats:      *repeats,
		Validate:     *validate,
		NetworkDelay: *netDelay,
		IdealMemory:  *ideal,
		Trace:        obs.spec(),
		Metrics:      reg,
	})
	stopProf()
	stopObs()
	if err != nil {
		fatal(1, err)
	}
	obs.finish(res.Trace)
	emit(*jsonOut, res, printResult)
}

// runCluster implements the cluster subcommand.
func runCluster(args []string) {
	fs := newFlagSet("cluster")
	var (
		appName  = fs.String("app", "masstree", "application to run ("+strings.Join(tailbench.Apps(), ", ")+")")
		mode     = fs.String("mode", "integrated", "cluster execution path: integrated (in-process dispatch), loopback (each replica behind its own NetServer, client-side balancing), networked (loopback plus synthetic NIC/switch delay), or simulated (virtual time)")
		netDelay = fs.Duration("net-delay", 25*time.Microsecond, "one-way synthetic network delay per hop (networked mode)")
		policy   = fs.String("policy", "leastq", "balancer policy: "+strings.Join(tailbench.BalancerPolicies(), ", "))
		replicas = fs.Int("replicas", 2, "number of replica servers")
		threads  = fs.String("threads", "1", "worker threads per replica: a single count (\"2\") or a per-replica vector (\"4,4,1,1\") for heterogeneous clusters")
		qps      = fs.Float64("qps", 2000, "cluster-wide offered load in queries per second (0 = saturation)")
		shapeArg = fs.String("shape", "", "time-varying load shape, e.g. spike:500,1500,5s,2s (overrides -qps; see tailbench.ParseLoadShape)")
		window   = fs.Duration("window", 0, "windowed latency accounting width (0 = automatic for time-varying shapes)")
		requests = fs.Int("requests", 2000, "measured requests")
		warmup   = fs.Int("warmup", 0, "warmup requests (0 = 10% of requests, negative = none)")
		scale    = fs.Float64("scale", 1.0, "application dataset scale")
		seed     = fs.Int64("seed", 1, "random seed")
		validate = fs.Bool("validate", false, "validate every response (integrated mode)")
		slow     = fs.String("slow", "", "straggler injection as comma-separated index:factor pairs, e.g. 0:3,2:1.5")
		jsonOut  = fs.String("json", "", "write the full result as JSON to this file (\"-\" for stdout)")

		autoscale = fs.String("autoscale", "", "autoscaling controller policy: "+strings.Join(tailbench.ControllerPolicies(), ", ")+" (empty = fixed membership)")
		minRepl   = fs.Int("min-replicas", 0, "autoscaler lower bound on active replicas (0 = 1)")
		maxRepl   = fs.Int("max-replicas", 0, "autoscaler upper bound / warm pool size (0 = 2x -replicas)")
		interval  = fs.Duration("control-interval", 0, "autoscaler control-tick period (0 = 100ms)")
		scaleHigh = fs.Float64("scale-high", 0, "threshold policy: scale up above this mean queue depth per replica (0 = 3)")
		scaleLow  = fs.Float64("scale-low", 0, "threshold policy: drain below this mean queue depth per replica (0 = 0.5)")
		targetP95 = fs.Duration("target-p95", 0, "target-p95 policy: windowed p95 sojourn goal (0 = 10ms)")
		provDelay = fs.Duration("provision-delay", 0, "cold-start latency before a scaled-up replica turns active (0 = instant warm pool)")
		drainPol  = fs.String("drain-policy", "", "scale-down victim policy: "+strings.Join(tailbench.DrainPolicies(), ", ")+" (empty = youngest)")
		obs       = addObsFlags(fs)
		prof      = addProfFlags(fs)
	)
	fs.Parse(args)

	m, shape := parseModeShape(*mode, *shapeArg)
	baseThreads, threadsPer, err := parseThreadsSpec(*threads)
	if err != nil {
		fatal(2, err)
	}
	var autoSpec *tailbench.AutoscaleSpec
	if *autoscale != "" {
		autoSpec = &tailbench.AutoscaleSpec{
			Policy:         *autoscale,
			MinReplicas:    *minRepl,
			MaxReplicas:    *maxRepl,
			Interval:       *interval,
			HighDepth:      *scaleHigh,
			LowDepth:       *scaleLow,
			TargetP95:      *targetP95,
			ProvisionDelay: *provDelay,
			DrainPolicy:    *drainPol,
		}
	} else if *minRepl != 0 || *maxRepl != 0 || *interval != 0 || *scaleHigh != 0 || *scaleLow != 0 || *targetP95 != 0 || *provDelay != 0 || *drainPol != "" {
		// Tuning flags without a controller would be silently ignored and
		// the run would stay a fixed cluster — almost certainly not what
		// the user meant.
		fatal(2, fmt.Errorf("autoscaler tuning flags require -autoscale <policy> (%s)", strings.Join(tailbench.ControllerPolicies(), ", ")))
	}
	reg, stopObs := obs.start()
	stopProf := prof.start()
	spec := tailbench.ClusterSpec{
		App:               *appName,
		Mode:              m,
		Policy:            *policy,
		Replicas:          *replicas,
		Threads:           baseThreads,
		ThreadsPerReplica: threadsPer,
		QPS:               *qps,
		Load:              shape,
		Window:            *window,
		Requests:          *requests,
		Warmup:            *warmup,
		Scale:             *scale,
		Seed:              *seed,
		Validate:          *validate,
		NetworkDelay:      *netDelay,
		Autoscale:         autoSpec,
		Trace:             obs.spec(),
		Metrics:           reg,
	}
	// Straggler factors are per pool slot: with autoscaling the pool is the
	// autoscaler's resolved upper bound, not just the initial replica
	// count. ReplicaPool applies the spec's own defaulting, so -slow is
	// validated against exactly the pool RunCluster will build.
	if spec.Slowdowns, err = parseSlowdowns(*slow, spec.ReplicaPool()); err != nil {
		fatal(2, err)
	}
	res, err := tailbench.RunCluster(spec)
	stopProf()
	stopObs()
	if err != nil {
		fatal(1, err)
	}
	obs.finish(res.Trace)
	emit(*jsonOut, res, printClusterResult)
}

// runPipeline implements the pipeline subcommand: a chain of clusters with
// fan-out/fan-in edges and optional per-edge hedging.
func runPipeline(args []string) {
	fs := newFlagSet("pipeline")
	var (
		tiersArg = fs.String("tiers", "masstree:2,masstree:4", "tier chain, front-end first, as comma-separated app:replicas[:threads] entries")
		fanout   = fs.String("fanout", "", "per-edge fan-out degrees for tiers 1..N-1, comma-separated (one value broadcasts to every edge; empty = 1)")
		hedgeArg = fs.String("hedge", "", "per-edge hedging budgets for tiers 1..N-1, comma-separated durations; prefix rtt-floor+ to anchor a budget on the edge's observed round-trip floor (one value broadcasts; 0 or empty = no hedging)")
		mode     = fs.String("mode", "simulated", "execution path: integrated (live replicas, in-process edges), loopback/networked (live, every edge crosses TCP with client-side balancing), or simulated (virtual time)")
		netDelay = fs.Duration("net-delay", 25*time.Microsecond, "one-way synthetic network delay per hop (networked mode)")
		policy   = fs.String("policy", "leastq", "balancer policy for every tier: "+strings.Join(tailbench.BalancerPolicies(), ", "))
		qps      = fs.Float64("qps", 1000, "root arrival rate in queries per second (0 = saturation)")
		shapeArg = fs.String("shape", "", "time-varying root load shape, e.g. spike:500,1500,5s,2s (overrides -qps)")
		window   = fs.Duration("window", 0, "windowed latency accounting width (0 = automatic for time-varying shapes)")
		requests = fs.Int("requests", 2000, "measured root requests")
		warmup   = fs.Int("warmup", 0, "warmup root requests (0 = 10% of requests, negative = none)")
		scale    = fs.Float64("scale", 1.0, "application dataset scale (every tier)")
		seed     = fs.Int64("seed", 1, "random seed")
		jsonOut  = fs.String("json", "", "write the full result as JSON to this file (\"-\" for stdout)")
		obs      = addObsFlags(fs)
		prof     = addProfFlags(fs)
	)
	fs.Parse(args)

	m, shape := parseModeShape(*mode, *shapeArg)
	tiers, err := parseTiers(*tiersArg, *fanout, *hedgeArg, *policy, *scale)
	if err != nil {
		fatal(2, err)
	}
	reg, stopObs := obs.start()
	stopProf := prof.start()
	res, err := tailbench.RunPipeline(tailbench.PipelineSpec{
		Mode:         m,
		Tiers:        tiers,
		QPS:          *qps,
		Load:         shape,
		Window:       *window,
		Requests:     *requests,
		Warmup:       *warmup,
		Seed:         *seed,
		NetworkDelay: *netDelay,
		Trace:        obs.spec(),
		Metrics:      reg,
	})
	stopProf()
	stopObs()
	if err != nil {
		fatal(1, err)
	}
	obs.finish(res.Trace)
	emit(*jsonOut, res, printPipelineResult)
}

// parseModeShape parses the -mode and -shape flags every measuring
// subcommand takes; an empty -shape keeps the scalar -qps shorthand (nil
// shape).
func parseModeShape(mode, shape string) (tailbench.Mode, tailbench.LoadShape) {
	m, err := tailbench.ParseMode(strings.ToLower(mode))
	if err != nil {
		fatal(2, err)
	}
	if shape == "" {
		return m, nil
	}
	s, err := tailbench.ParseLoadShape(shape)
	if err != nil {
		fatal(2, err)
	}
	return m, s
}

// emit writes res as JSON when -json was given, then renders it unless the
// JSON went to stdout.
func emit[R any](jsonOut string, res R, render func(R)) {
	if jsonOut != "" {
		if err := writeJSON(jsonOut, res); err != nil {
			fatal(1, err)
		}
		if jsonOut == "-" {
			return
		}
	}
	render(res)
}
