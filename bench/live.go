package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"tailbench/internal/app"
	"tailbench/internal/cluster"
	"tailbench/internal/core"
	"tailbench/internal/pipeline"
	"tailbench/internal/stats"
	"tailbench/internal/trace"
	"tailbench/internal/workload"
)

// payloadBytes is the size of every live request and of its echoed response.
const payloadBytes = 64

// refPasses is the number of calls the reference-rate requests are split over.
const refPasses = 5

// spin-integrated's deterministic service time and reference rate: rho = 0.5.
const (
	spinService = 250 * time.Microsecond
	spinQPS     = 2000
)

// echoServer answers each request with the request's own bytes, in about no
// time, so every microsecond a run reports is the harness's.
type echoServer struct{}

func (echoServer) Name() string { return "echo" }
func (echoServer) Close() error { return nil }
func (echoServer) Process(req app.Request) (app.Response, error) {
	return app.Response(req), nil
}

// spinServer is an echo server with a deterministic service time: it keeps
// its worker's core busy for d before answering.
type spinServer struct{ d time.Duration }

func (spinServer) Name() string { return "spin" }
func (spinServer) Close() error { return nil }
func (s spinServer) Process(req app.Request) (app.Response, error) {
	for start := time.Now(); time.Since(start) < s.d; {
	}
	return app.Response(req), nil
}

// echoClient draws random payloads from its seed and accepts a response only
// if it is the request, byte for byte.
type echoClient struct{ r *rand.Rand }

func newEchoClient(seed int64) (app.Client, error) {
	return &echoClient{r: workload.NewRand(seed)}, nil
}

func (c *echoClient) NextRequest() app.Request {
	b := make([]byte, payloadBytes)
	c.r.Read(b)
	return b
}

func (c *echoClient) CheckResponse(req app.Request, resp app.Response) error {
	if !bytes.Equal(req, resp) {
		return app.BadResponsef("echo: response differs from request")
	}
	return nil
}

// liveCall is one call into a live engine: the offered rate (0 is
// back-to-back issue), the number of measured requests, and whether the
// engine keeps raw samples and feeds the program's own trace recorder.
type liveCall struct {
	qps      float64
	requests int
	seed     int64
	keepRaw  bool
	rec      *trace.Recorder
}

// liveOut is what the call reported, reduced to what the benchmark reads.
type liveOut struct {
	requests, errors        uint64
	achieved                float64
	queue, service, sojourn stats.LatencySummary
	// explained is the mean time per request that the engine's own
	// components account for; mean sojourn minus it is what the harness
	// added outside them (issue lateness, and the transport where there is
	// one).
	explained time.Duration
	// rawQueue, rawService and rawSojourn are index-aligned per request, or
	// nil where the engine's result does not carry all three.
	rawQueue, rawService, rawSojourn []time.Duration
	program                          *trace.Report
}

type liveEngine func(liveCall) (liveOut, error)

func integratedEngine(server app.Server) liveEngine {
	return func(c liveCall) (liveOut, error) {
		res, err := core.RunIntegrated(server, newEchoClient, core.RunConfig{
			QPS: c.qps, Threads: 1, Requests: c.requests, Seed: c.seed,
			KeepRaw: c.keepRaw, Validate: true, Trace: c.rec,
		})
		if err != nil {
			return liveOut{}, err
		}
		return liveOut{
			requests: res.Requests, errors: res.Errors, achieved: res.AchievedQPS,
			queue: res.Queue, service: res.Service, sojourn: res.Sojourn,
			explained: res.Queue.Mean + res.Service.Mean,
			rawQueue:  res.QueueSamples, rawService: res.ServiceSamples, rawSojourn: res.SojournSamples,
			program: c.rec.Report(),
		}, nil
	}
}

// clusterLoopbackEngine is cluster.Run over 2 echo replicas, each behind its
// own NetServer on the loopback device, balanced client-side by leastq.
func clusterLoopbackEngine(c liveCall) (liveOut, error) {
	res, err := cluster.Run("echo", []app.Server{echoServer{}, echoServer{}}, newEchoClient, cluster.Config{
		Policy: cluster.PolicyLeastQueue, Threads: 1, QPS: c.qps, Requests: c.requests, Seed: c.seed,
		KeepRaw: c.keepRaw, Validate: true, Transport: cluster.TransportLoopback, Trace: c.rec,
	})
	if err != nil {
		return liveOut{}, err
	}
	return liveOut{
		requests: res.Requests, errors: res.Errors, achieved: res.AchievedQPS,
		queue: res.Queue, service: res.Service, sojourn: res.Sojourn,
		explained: res.Queue.Mean + res.Service.Mean,
		program:   res.Trace,
	}, nil
}

// pipelineEngine is pipeline.Run over 1 echo front replica fanning out 2
// ways into 2 echo shard replicas, in-process edges, no hedging.
func pipelineEngine(c liveCall) (liveOut, error) {
	tier := func(name string, replicas, fanOut int) pipeline.TierConfig {
		servers := make([]app.Server, replicas)
		for i := range servers {
			servers[i] = echoServer{}
		}
		return pipeline.TierConfig{
			Name: name, App: "echo", Policy: cluster.PolicyLeastQueue, Threads: 1,
			FanOut: fanOut, Servers: servers, NewClient: newEchoClient, Validate: true,
		}
	}
	res, err := pipeline.Run(pipeline.Config{
		Tiers: []pipeline.TierConfig{tier("front", 1, 1), tier("shards", 2, 2)},
		QPS:   c.qps, Requests: c.requests, Seed: c.seed, KeepRaw: c.keepRaw, Trace: c.rec,
	})
	if err != nil {
		return liveOut{}, err
	}
	out := liveOut{
		requests: res.Requests, errors: res.Errors, achieved: res.AchievedQPS,
		sojourn: res.Sojourn, program: res.Trace,
	}
	// A root's sojourn is its front sub-request plus the slower of its two
	// shard sub-requests. The result carries no per-root queue and service
	// (and a tier's own sojourn starts at the scheduled arrival, lateness
	// included), so what the engine explains is a sum of per-tier means.
	out.queue, out.service = res.Tiers[0].Queue, res.Tiers[0].Service
	for _, t := range res.Tiers {
		out.explained += t.Queue.Mean + t.Service.Mean
		out.errors += t.Errors
	}
	return out, nil
}

// liveWorkload sizes one live workload at the 10-second reference scale.
type liveWorkload struct {
	// entry names the engine's public function, for span names.
	entry  string
	engine liveEngine
	// refQPS is the open-loop Poisson reference rate and refRequests the
	// requests measured at it; satRequests is the size of each back-to-back
	// pass.
	refQPS      float64
	refRequests int
	satRequests int
	satPasses   int
	// setupRequests is the size of the warm call that set-up time covers,
	// and setupReps how many of them a run times.
	setupRequests int
	setupReps     int
	// serviceWant bounds the mean measured service time, where the workload
	// has a deterministic one to check.
	serviceMin, serviceMax time.Duration
	// layers adds the workload's own layer readings to a traced run.
	layers func(r *run, ref liveOut)
}

var liveWorkloads = map[string]liveWorkload{
	"noop-integrated": {
		entry: "core.RunIntegrated", engine: integratedEngine(echoServer{}),
		refQPS: 2000, refRequests: 10500, satRequests: 200000, satPasses: 14, setupRequests: 50000, setupReps: 15,
		layers: func(r *run, ref liveOut) {
			r.put("queue_p50_us", us(ref.queue.P50), int(ref.requests))
			spinRegime(r)
			collectorKernels(r)
		},
	},
	// 250 us of service at 2 000 QPS is rho = 0.5. The issue's 100 us at
	// 5 000 QPS is the same rho, but where time.Sleep wakes on a 1 ms tick it
	// issues five arrivals per tick, and its p50 sat at 420 us or at 520 us
	// for minutes at a time; at 2 000 QPS it has one regime.
	"spin-integrated": {
		entry: "core.RunIntegrated", engine: integratedEngine(spinServer{d: spinService}),
		refQPS: spinQPS, refRequests: 10500, satRequests: 2000, satPasses: 6, setupRequests: 600, setupReps: 7,
		serviceMin: spinService, serviceMax: spinService * 6 / 5,
		layers: func(r *run, ref liveOut) {
			want := md1Wait(spinQPS, ref.service.Mean)
			r.put("queue_excess_ratio", float64(ref.queue.Mean)/float64(want), int(ref.requests))
		},
	},
	"noop-cluster-loopback": {
		entry: "cluster.Run", engine: clusterLoopbackEngine,
		refQPS: 2000, refRequests: 10500, satRequests: 50000, satPasses: 10, setupRequests: 5000, setupReps: 15,
		layers: func(r *run, _ liveOut) { netKernels(r) },
	},
	"noop-pipeline": {
		entry: "pipeline.Run", engine: pipelineEngine,
		refQPS: 2000, refRequests: 10500, satRequests: 100000, satPasses: 10, setupRequests: 10000, setupReps: 15,
	},
}

// md1Wait is the mean wait of an M/D/1 queue: rho*S / (2*(1-rho)).
func md1Wait(qps float64, service time.Duration) time.Duration {
	rho := qps * service.Seconds()
	if rho >= 1 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(rho * float64(service) / (2 * (1 - rho)))
}

// lateness derives, per request, how late the harness issued it: the part of
// the sojourn that is neither queueing nor service. The three slices are
// index-aligned. It returns the sorted lateness and the share later than
// 100 microseconds.
func lateness(queue, service, sojourn []time.Duration) (sorted []time.Duration, lateFrac float64) {
	if len(sojourn) == 0 || len(queue) != len(sojourn) || len(service) != len(sojourn) {
		return nil, 0
	}
	sorted = make([]time.Duration, len(sojourn))
	late := 0
	for i := range sojourn {
		d := sojourn[i] - queue[i] - service[i]
		if d < 0 {
			d = 0
		}
		if d > 100*time.Microsecond {
			late++
		}
		sorted[i] = d
	}
	stats.SortDurations(sorted)
	return sorted, float64(late) / float64(len(sorted))
}

// call runs one engine call under a span, counts what it attempted and what
// failed, and reports an engine error as a failed check.
func (w liveWorkload) call(r *run, span string, c liveCall) (liveOut, time.Duration, bool) {
	end := r.spans.begin(w.entry + " " + span)
	start := time.Now()
	out, err := w.engine(c)
	wall := time.Since(start)
	end()
	if err != nil {
		r.failf("%s: %v", span, err)
		r.count(int64(c.requests), int64(c.requests))
		return out, wall, false
	}
	// Errors are failed validations or transport errors; whatever was
	// neither completed nor failed was never answered.
	failed := int64(c.requests) - int64(out.requests)
	if failed < 0 {
		failed = 0
	}
	r.count(int64(c.requests), failed)
	if out.errors > 0 {
		r.failf("%s: %d responses failed echo validation", span, out.errors)
	}
	return out, wall, true
}

// run measures the workload. Untraced, it reports the end-to-end metrics;
// traced, the layer metrics.
func (w liveWorkload) run(r *run) {
	ref := r.n(w.refRequests, 100*refPasses)
	sat := r.n(w.satRequests, 100)
	seedOf := func(stream int64) int64 { return workload.SplitSeed(r.seed, stream) }

	if r.traced {
		w.runTraced(r, ref, sat, seedOf)
		return
	}

	// Set-up: everything before the first measured request. The engines
	// build their payloads, arrival schedule, queues, listeners and
	// connections inside the call, so one set-up is one whole warm call,
	// issued back to back.
	warm := r.n(w.setupRequests, 50)
	var setups []float64
	for i := 0; i < w.setupReps; i++ {
		_, wall, _ := w.call(r, "setup", liveCall{qps: 0, requests: warm, seed: seedOf(100 + int64(i))})
		setups = append(setups, wall.Seconds())
	}
	r.put("setup_s", median(setups), len(setups))

	// Saturation: completions per second with back-to-back issue. Half the
	// passes run before the reference call and half after it, so that a slow
	// stretch of the host colours fewer of them.
	var rates []float64
	saturate := func(from, to int) {
		for i := from; i < to; i++ {
			if out, _, ok := w.call(r, "saturation", liveCall{qps: 0, requests: sat, seed: seedOf(50 + int64(i))}); ok {
				rates = append(rates, out.achieved)
			}
		}
	}
	saturate(0, w.satPasses/2)

	// Reference rate: sojourn from the scheduled arrival, in refPasses calls
	// (each with its own 10% warm-up discarded by the engine), reported as
	// the median of the passes' percentiles. One stall of the host under a
	// half-busy server backs up a hundred requests and would own the p99 of
	// a single long pass; this way it owns one pass of five.
	var p50s, p99s, service []float64
	measured := 0
	for i := 0; i < refPasses; i++ {
		out, _, ok := w.call(r, "reference", liveCall{qps: w.refQPS, requests: ref / refPasses, seed: seedOf(int64(i)), keepRaw: true})
		if !ok {
			continue
		}
		p50s, p99s = append(p50s, us(out.sojourn.P50)), append(p99s, us(out.sojourn.P99))
		service = append(service, float64(out.service.Mean))
		measured += int(out.requests)
	}
	r.put("typical_us", median(p50s), measured)
	r.put("tail_us", median(p99s), measured)
	if m := time.Duration(median(service)); w.serviceMax > 0 && (m < w.serviceMin || m > w.serviceMax) {
		r.failf("mean service time %v outside [%v, %v]", m, w.serviceMin, w.serviceMax)
	}

	saturate(w.satPasses/2, w.satPasses)
	r.put("rate_per_s", median(rates), len(rates)*sat)
	r.note("saturation_passes", fmt.Sprintf("%.4g", rates))
}

func (w liveWorkload) runTraced(r *run, refN, sat int, seedOf func(int64) int64) {
	w.call(r, "setup", liveCall{qps: 0, requests: r.n(w.setupRequests, 50), seed: seedOf(100)})

	// One reference pass with the program's recorder on and raw samples kept.
	rec := trace.NewRecorder(trace.DefaultTopK, 0)
	ref, _, ok := w.call(r, "reference", liveCall{qps: w.refQPS, requests: refN, seed: seedOf(0), keepRaw: true, rec: rec})
	if ok {
		n := int(ref.requests)
		if late, frac := lateness(ref.rawQueue, ref.rawService, ref.rawSojourn); late != nil {
			r.put("lateness_p50_us", us(stats.PercentileOfSorted(late, 50)), n)
			r.put("lateness_p99_us", us(stats.PercentileOfSorted(late, 99)), n)
			r.put("late_frac", frac, n)
		}
		outside := ref.sojourn.Mean - ref.explained
		r.put("lateness_mean_us", us(outside), n)
		r.put("unattributed_frac", float64(outside)/float64(ref.sojourn.Mean), n)
		r.program = ref.program
		if w.layers != nil {
			w.layers(r, ref)
		}
	}

	// Tracing overhead where it can show: at saturation, traced against
	// untraced passes in turn.
	var plain, traced []float64
	for i := 0; i < 3; i++ {
		if out, _, ok := w.call(r, "saturation", liveCall{qps: 0, requests: sat, seed: seedOf(50 + int64(i))}); ok {
			plain = append(plain, 1/out.achieved)
		}
		c := liveCall{qps: 0, requests: sat, seed: seedOf(50 + int64(i)), rec: trace.NewRecorder(trace.DefaultTopK, 0)}
		if out, _, ok := w.call(r, "saturation-traced", c); ok {
			traced = append(traced, 1/out.achieved)
		}
	}
	if len(plain) > 0 && len(traced) > 0 {
		r.put("trace_overhead_frac", median(traced)/median(plain)-1, len(traced)*sat)
	}

	shaperKernels(r)
	scheduleKernels(r, refN)
	traceKernel(r)
}
