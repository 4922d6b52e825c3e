package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"time"

	"tailbench/internal/cluster"
	"tailbench/internal/load"
	"tailbench/internal/pipeline"
	"tailbench/internal/queueing"
	"tailbench/internal/stats"
	"tailbench/internal/trace"
	"tailbench/internal/workload"
)

// simOut is what one simulation call reported, reduced to what the benchmark
// checks: a hash of the whole result, and the statistics and exact counts
// that are printed beside it.
type simOut struct {
	hash            uint64
	p50, p99        time.Duration
	eventsSimulated int64
}

// simCase is one simulated study. A simulation has no set-up call of its
// own, so the case also says how to replay its parts from the outside.
type simCase struct {
	name string
	// events is the case's size as the repo's own benchmarks count it: 2 per
	// measured request or sub-request, hedge duplicates excluded.
	events int64
	// stream tells the case's seeds apart from the other cases'; inputs is
	// how many seeds the case is run on. Host time depends on the inputs by
	// several percent (heap depths, radix passes), so a run measures a few
	// and reports their median; each is run twice so its bytes can be
	// checked.
	stream int64
	inputs int
	// run makes one simulation call and returns the function that digests
	// its result, so that hashing stays outside the timed call.
	run func(seed int64, rec *trace.Recorder) (digest func() simOut, err error)
	// replay describes the case's inputs for the traced decomposition: the
	// arrival process and count load.Schedule is given, the samples the
	// stats kernels sort and summarise, and the tiers whose bare dispatch
	// loop is timed (policy, replicas, threads, dispatches).
	arrivals int
	shape    load.Shape
	samples  int
	tiers    []replayTier
}

type replayTier struct {
	policy            string
	replicas, threads int
	dispatches        int
}

// hashResult is FNV-64a over the result's JSON. The two CDFs have a point
// per distinct sample, far too many to print as JSON on every pass, so they
// enter the hash in binary and leave the JSON.
func hashResult(v any, cdfs ...[]stats.CDFPoint) uint64 {
	h := fnv.New64a()
	for _, cdf := range cdfs {
		hashCDF(h, cdf)
	}
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	h.Write(data)
	return h.Sum64()
}

func hashCDF(h hash.Hash64, cdf []stats.CDFPoint) {
	for _, p := range cdf {
		hashUint64(h, uint64(p.Value.Nanoseconds()))
		hashUint64(h, math.Float64bits(p.Cumulative))
	}
}

func hashUint64(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func hashDurations(h hash.Hash64, ds []time.Duration) {
	for _, d := range ds {
		hashUint64(h, uint64(d.Nanoseconds()))
	}
}

func clusterOut(res *cluster.Result) simOut {
	service, sojourn := res.ServiceCDF, res.SojournCDF
	flat := *res
	flat.ServiceCDF, flat.SojournCDF = nil, nil
	return simOut{hash: hashResult(&flat, service, sojourn), p50: res.Sojourn.P50, p99: res.Sojourn.P99, eventsSimulated: res.EventsSimulated}
}

func pipelineOut(res *pipeline.Result) simOut {
	sojourn := res.SojournCDF
	flat := *res
	flat.SojournCDF = nil
	return simOut{hash: hashResult(&flat, sojourn), p50: res.Sojourn.P50, p99: res.Sojourn.P99, eventsSimulated: res.EventsSimulated}
}

func expPool(n int, mean time.Duration) []cluster.SimReplica {
	pool := make([]cluster.SimReplica, n)
	for i := range pool {
		pool[i] = cluster.SimReplica{Service: queueing.ExponentialService{Mean: mean}}
	}
	return pool
}

// warmOf is the engines' default warm-up, 10% of the measured requests.
func warmOf(requests int) int { return requests / 10 }

// leastq4 is the BenchmarkSimCluster configuration: 4 replicas of 2 threads
// under leastq at rho = 0.7, exponential 1 ms service.
func leastq4(requests int, seed int64, rec *trace.Recorder) cluster.SimConfig {
	return cluster.SimConfig{
		Policy: cluster.PolicyLeastQueue, Threads: 2, QPS: 0.7 * 8 / time.Millisecond.Seconds(),
		Requests: requests, Seed: seed, Replicas: expPool(4, time.Millisecond), Trace: rec,
	}
}

func simulateCluster(cfg cluster.SimConfig) (func() simOut, error) {
	res, err := cluster.Simulate(cfg)
	if err != nil {
		return nil, err
	}
	return func() simOut { return clusterOut(res) }, nil
}

// simClusterCases are the sim-cluster workload's studies at the run's size.
func simClusterCases(r *run) []simCase {
	var cases []simCase

	// M/G/k, the third simulator, still on container/heap.
	n := r.n(300000, 2000)
	cases = append(cases, simCase{
		name: "mgk", events: 2 * int64(n), stream: 1, inputs: 3, arrivals: n + warmOf(n), shape: load.Constant(2800), samples: 2 * n,
		run: func(seed int64, _ *trace.Recorder) (func() simOut, error) {
			res := queueing.SimulateMGk(queueing.MGkConfig{
				ArrivalRate: 0.7 * 4 / time.Millisecond.Seconds(), Servers: 4, Requests: n, Warmup: warmOf(n), Seed: seed,
			}, queueing.ExponentialService{Mean: time.Millisecond})
			return func() simOut {
				h := fnv.New64a()
				hashDurations(h, res.SojournSamples)
				hashDurations(h, res.ArrivalTimes)
				flat := res
				flat.SojournSamples, flat.ArrivalTimes = nil, nil
				return simOut{hash: hashResult(&flat) ^ h.Sum64(), p50: res.Sojourn.P50, p99: res.Sojourn.P99}
			}, nil
		},
	})

	// Four replicas: the event heap and the sample log are the hot path.
	n4 := r.n(1200000, 4000)
	cases = append(cases, simCase{
		name: "leastq-4", events: 2 * int64(n4), stream: 2, inputs: 3,
		arrivals: n4 + warmOf(n4), shape: load.Constant(5600), samples: 3 * n4,
		tiers: []replayTier{{cluster.PolicyLeastQueue, 4, 2, n4 + warmOf(n4)}},
		run: func(seed int64, rec *trace.Recorder) (func() simOut, error) {
			return simulateCluster(leastq4(n4, seed, rec))
		},
	})

	// 1 024 replicas: the balancer's linear scan over the candidates.
	nk := r.n(40000, 500)
	qpsK := 0.7 * 1024 / time.Millisecond.Seconds()
	cases = append(cases, simCase{
		name: "leastq-1024", events: 2 * int64(nk), stream: 3, inputs: 2,
		arrivals: nk + warmOf(nk), shape: load.Constant(qpsK), samples: 3 * nk,
		tiers: []replayTier{{cluster.PolicyLeastQueue, 1024, 1, nk + warmOf(nk)}},
		run: func(seed int64, rec *trace.Recorder) (func() simOut, error) {
			return simulateCluster(cluster.SimConfig{
				Policy: cluster.PolicyLeastQueue, Threads: 1, QPS: qpsK,
				Requests: nk, Seed: seed, Replicas: expPool(1024, time.Millisecond), Trace: rec,
			})
		},
	})

	// Elastic: a 64-slot pool under a 3x spike, the threshold controller
	// ticking and windows on.
	ne := r.n(400000, 2000)
	spike := load.Spike(8000, 24000, 5*time.Second, 5*time.Second)
	cases = append(cases, simCase{
		name: "jsq2-64-elastic", events: 2 * int64(ne), stream: 4, inputs: 3,
		arrivals: ne + warmOf(ne), shape: spike, samples: 4 * ne,
		tiers: []replayTier{{cluster.PolicyJSQ2, 16, 1, ne + warmOf(ne)}},
		run: func(seed int64, rec *trace.Recorder) (func() simOut, error) {
			return simulateCluster(cluster.SimConfig{
				Policy: cluster.PolicyJSQ2, Threads: 1, Load: spike, Window: time.Second,
				Requests: ne, Seed: seed, Replicas: expPool(64, time.Millisecond), InitialReplicas: 16,
				Autoscale: &cluster.AutoscaleConfig{Policy: cluster.ControllerThreshold, MinReplicas: 8, MaxReplicas: 64},
				Trace:     rec,
			})
		},
	})
	return cases
}

func simulatePipeline(cfg pipeline.Config) (func() simOut, error) {
	res, err := pipeline.Simulate(cfg)
	if err != nil {
		return nil, err
	}
	return func() simOut { return pipelineOut(res) }, nil
}

func simTier(name string, replicas, threads int, mean time.Duration) pipeline.TierConfig {
	return pipeline.TierConfig{
		Name: name, App: "bench", Policy: cluster.PolicyLeastQueue,
		Threads: threads, Replicas: replicas, SimReplicas: expPool(replicas, mean),
	}
}

// simPipelineCases are the sim-pipeline workload's studies at the run's size.
func simPipelineCases(r *run) []simCase {
	var cases []simCase

	// The leastq-4 topology as a one-tier pipeline: the golden identity, so
	// routing cluster.Simulate through this engine has a price on record.
	n1 := r.n(800000, 4000)
	cases = append(cases, simCase{
		name: "single-tier", events: 2 * int64(n1), stream: 2, inputs: 3,
		arrivals: n1 + warmOf(n1), shape: load.Constant(5600), samples: 3 * n1,
		tiers: []replayTier{{cluster.PolicyLeastQueue, 4, 2, n1 + warmOf(n1)}},
		run: func(seed int64, rec *trace.Recorder) (func() simOut, error) {
			return simulatePipeline(pipeline.Config{
				Tiers: []pipeline.TierConfig{simTier("only", 4, 2, time.Millisecond)},
				QPS:   leastq4(n1, seed, nil).QPS, Requests: n1, Seed: seed, Trace: rec,
			})
		},
	})

	// The BenchmarkPipelineSim configuration: 2 front replicas fanning out
	// 4 ways into 8 hedged shards.
	nh := r.n(120000, 1000)
	cases = append(cases, simCase{
		name: "fanout4-hedged", events: 2 * (1 + 4) * int64(nh), stream: 5, inputs: 3,
		arrivals: nh + warmOf(nh), shape: load.Constant(300), samples: 5 * nh,
		tiers: []replayTier{{cluster.PolicyLeastQueue, 2, 1, nh + warmOf(nh)}, {cluster.PolicyLeastQueue, 8, 1, 4 * (nh + warmOf(nh))}},
		run: func(seed int64, rec *trace.Recorder) (func() simOut, error) {
			shards := simTier("shards", 8, 1, time.Millisecond)
			shards.FanOut, shards.HedgeDelay = 4, 4*time.Millisecond
			return simulatePipeline(pipeline.Config{
				Tiers: []pipeline.TierConfig{simTier("front", 2, 1, 250*time.Microsecond), shards},
				QPS:   300, Requests: nh, Seed: seed, Trace: rec,
			})
		},
	})

	// Wide fan-out: every root waits for the slowest of 16 shards.
	nw := r.n(40000, 500)
	cases = append(cases, simCase{
		name: "fanout16", events: 2 * (1 + 16) * int64(nw), stream: 6, inputs: 3,
		arrivals: nw + warmOf(nw), shape: load.Constant(500), samples: 17 * nw,
		tiers: []replayTier{{cluster.PolicyLeastQueue, 2, 1, nw + warmOf(nw)}, {cluster.PolicyLeastQueue, 16, 1, 16 * (nw + warmOf(nw))}},
		run: func(seed int64, rec *trace.Recorder) (func() simOut, error) {
			shards := simTier("shards", 16, 1, time.Millisecond)
			shards.FanOut = 16
			return simulatePipeline(pipeline.Config{
				Tiers: []pipeline.TierConfig{simTier("front", 2, 1, 250*time.Microsecond), shards},
				QPS:   500, Requests: nw, Seed: seed, Trace: rec,
			})
		},
	})
	return cases
}

// simWorkload is a set of cases with the name of its reference case and an
// optional check across engines that runs once on the reference case.
type simWorkload struct {
	cases     func(*run) []simCase
	reference string
	identity  func(r *run, c simCase, reference simOut) error
}

var simWorkloads = map[string]simWorkload{
	"sim-cluster": {cases: simClusterCases, reference: "leastq-4"},
	"sim-pipeline": {
		cases: simPipelineCases, reference: "single-tier",
		// A one-tier pipeline must report the cluster engine's statistics for
		// the same topology and seed.
		identity: func(r *run, c simCase, single simOut) error {
			digest, err := simulateCluster(leastq4(int(c.events/2), c.seed(r, 0), nil))
			if err != nil {
				return err
			}
			want := digest()
			if single.p50 != want.p50 || single.p99 != want.p99 {
				return fmt.Errorf("single-tier p50/p99 = %v/%v, cluster.Simulate gives %v/%v", single.p50, single.p99, want.p50, want.p99)
			}
			return nil
		},
	},
}

// seed is the case's i-th input seed, derived from the run's seed alone.
func (c simCase) seed(r *run, i int) int64 {
	return workload.SplitSeed(workload.SplitSeed(r.seed, c.stream), int64(i))
}

// measured is what a case's passes gave: the median wall time of one call in
// seconds, the number of calls behind it, the first input's output, the hash
// over every input's output, and the first call's span.
type measured struct {
	wall  float64
	calls int
	first simOut
	hash  uint64
	span  int
}

// measure runs the case twice on each of its first inputs seeds, under
// spans. Same inputs and same seed must give the same bytes: every call is
// one operation attempted, and a second call whose hash differs from the
// first has failed.
func (c simCase) measure(r *run, span string, inputs int, rec func() *trace.Recorder) (measured, error) {
	var m measured
	var walls []float64
	all := fnv.New64a()
	for i := 0; i < inputs; i++ {
		var outs [2]simOut
		for p := range outs {
			end := r.spans.begin(span + " " + c.name)
			id := r.spans.last()
			start := time.Now()
			digest, err := c.run(c.seed(r, i), rec())
			d := time.Since(start)
			end()
			if err != nil {
				r.count(1, 1)
				return m, fmt.Errorf("%s: %w", c.name, err)
			}
			walls = append(walls, d.Seconds())
			outs[p] = digest()
			if i == 0 && p == 0 {
				m.first, m.span = outs[p], id
			}
		}
		if outs[1].hash != outs[0].hash {
			r.count(2, 1)
			return m, fmt.Errorf("%s: input %d hashed %016x, then %016x", c.name, i, outs[0].hash, outs[1].hash)
		}
		r.count(2, 0)
		hashUint64(all, outs[0].hash)
	}
	m.wall, m.calls, m.hash = median(walls), len(walls), all.Sum64()
	return m, nil
}

func untraced() *trace.Recorder { return nil }

// run measures the workload: untraced for the end-to-end metrics, traced for
// the layer metrics.
func (w simWorkload) run(r *run) {
	if r.traced {
		w.runTraced(r)
		return
	}
	// Set-up: build every case's inputs and run it once at a tenth of its
	// size, which is all a caller does before the first timed event.
	small := *r
	small.scale = r.scale / 10
	var setups []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		for _, c := range w.cases(&small) {
			if _, err := c.run(c.seed(r, 0), nil); err != nil {
				r.failf("setup %s: %v", c.name, err)
				return
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.put("setup_s", median(setups), len(setups))

	var rates []float64
	var typical, slowest float64
	for _, c := range w.cases(r) {
		m, err := c.measure(r, "pass", c.inputs, untraced)
		if err != nil {
			r.failf("%v", err)
			return
		}
		c.report(r, m)
		r.note("case."+c.name, fmt.Sprintf("median wall %.4f s over %d calls, %.4g events/s", m.wall, m.calls, float64(c.events)/m.wall))
		rates = append(rates, float64(c.events)/m.wall)
		// Host microseconds per 1 000 simulated events.
		perKilo := m.wall * 1e6 / (float64(c.events) / 1000)
		slowest = max(slowest, perKilo)
		if c.name == w.reference {
			typical = perKilo
			if w.identity != nil {
				if err := w.identity(r, c, m.first); err != nil {
					r.failf("%v", err)
				}
			}
		}
	}
	r.put("rate_per_s", geomean(rates), len(rates))
	r.put("typical_us", typical, 0)
	r.put("tail_us", slowest, 0)
}

// report prints the case's exact outputs, so two commits compare exactly.
func (c simCase) report(r *run, m measured) {
	r.note("result_hash."+c.name, fmt.Sprintf("%016x", m.hash))
	if m.first.eventsSimulated > 0 {
		r.note("events_simulated."+c.name, fmt.Sprint(m.first.eventsSimulated))
	}
}

func (w simWorkload) runTraced(r *run) {
	var plainS, tracedS, selfS float64
	reference := 0
	for _, c := range w.cases(r) {
		plain, err := c.measure(r, "pass", 2, untraced)
		if err != nil {
			r.failf("%v", err)
			return
		}
		// The same calls with the program's own recorder on.
		traced, err := c.measure(r, "pass-traced", 1, func() *trace.Recorder { return trace.NewRecorder(trace.DefaultTopK, 0) })
		if err != nil {
			r.failf("%v", err)
			return
		}
		c.report(r, plain)
		r.put("events_per_s."+c.name, float64(c.events)/plain.wall, plain.calls)
		plainS, tracedS = plainS+plain.wall, tracedS+traced.wall
		selfS += c.decompose(r, plain.span, plain.wall)
		if c.name == w.reference {
			reference = int(c.events / 2)
		}
	}
	r.put("trace_overhead_frac", tracedS/plainS-1, 0)
	r.put("engine_self_s", selfS, 0)
	r.put("unattributed_frac", selfS/plainS, 0)

	scheduleKernels(r, reference)
	statsKernels(r, reference)
	dispatchKernels(r)
	traceKernel(r)
}

// decompose prices the parts of a case that can be called from the outside,
// on inputs of the case's own size, and records them as replayed children of
// the case's span. What is left of the case's wall time is the engine's own:
// its event loop and result assembly. It returns that remainder in seconds.
func (c simCase) decompose(r *run, span int, wall float64) float64 {
	seed := workload.SplitSeed(r.seed, 11)
	start := time.Now()
	load.Schedule(c.shape, c.arrivals, seed)
	schedule := time.Since(start)

	rng := workload.NewRand(seed)
	samples := make([]time.Duration, c.samples)
	for i := range samples {
		samples[i] = time.Duration(rng.ExpFloat64() * float64(time.Millisecond))
	}
	start = time.Now()
	stats.SortDurations(samples)
	stats.SummaryFromSorted(samples)
	kernels := time.Since(start)

	var dispatch time.Duration
	for _, t := range c.tiers {
		d, err := dispatchLoop(t.policy, t.replicas, t.threads, t.dispatches, seed)
		if err != nil {
			r.failf("%s: replaying dispatch: %v", c.name, err)
			continue
		}
		dispatch += d
	}
	r.spans.replay(span, "load.Schedule", schedule)
	r.spans.replay(span, "stats sort+summary", kernels)
	r.spans.replay(span, "cluster.SimCluster dispatch loop", dispatch)
	return wall - (schedule + kernels + dispatch).Seconds()
}
