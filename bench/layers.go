package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tailbench/internal/cluster"
	"tailbench/internal/core"
	"tailbench/internal/load"
	"tailbench/internal/netproto"
	"tailbench/internal/stats"
	"tailbench/internal/trace"
	"tailbench/internal/workload"
)

// The functions in this file each time one layer's public functions from the
// outside, under a span, and report nanoseconds per operation. They run in
// traced runs only.

// perOp times fn, which performs n operations, and returns ns per operation.
func perOp(r *run, span string, n int, fn func()) float64 {
	end := r.spans.begin(span)
	start := time.Now()
	fn()
	d := time.Since(start)
	end()
	return float64(d.Nanoseconds()) / float64(n)
}

// shaperKernels measures how far core.WaitUntil overshoots a 500-microsecond
// wait, the sleep-paced regime of the 2 000 QPS reference rate.
func shaperKernels(r *run) {
	n := r.n(2000, 200)
	over := make([]time.Duration, n)
	end := r.spans.begin("core.WaitUntil")
	for i := range over {
		target := time.Now().Add(500 * time.Microsecond)
		core.WaitUntil(target)
		over[i] = time.Since(target)
	}
	end()
	stats.SortDurations(over)
	r.put("waituntil_overshoot_p50_us", us(stats.PercentileOfSorted(over, 50)), n)
	r.put("waituntil_overshoot_p99_us", us(stats.PercentileOfSorted(over, 99)), n)
}

// spinRegime reads the echo sojourn at 50 000 QPS, where the gap between
// arrivals is inside WaitUntil's spin window and the dispatcher never sleeps.
func spinRegime(r *run) {
	n := r.n(100000, 2000)
	w := liveWorkload{entry: "core.RunIntegrated", engine: integratedEngine(echoServer{})}
	out, _, ok := w.call(r, "reference-50k",
		liveCall{qps: 50000, requests: n, seed: workload.SplitSeed(r.seed, 7), keepRaw: true})
	if ok {
		r.put("sojourn_p50_us_50k", us(out.sojourn.P50), int(out.requests))
	}
}

// collectorKernels times the statistics collector and its histogram.
func collectorKernels(r *run) {
	n := r.n(1000000, 20000)
	c := core.NewCollector(false)
	s := core.Sample{Queue: 3 * time.Microsecond, Service: 40 * time.Microsecond, Sojourn: 450 * time.Microsecond}
	r.put("collector_record_ns", perOp(r, "core.Collector.Record", n, func() {
		for i := 0; i < n; i++ {
			c.Record(s)
		}
	}), n)
	h := stats.NewHistogram()
	r.put("hist_record_ns", perOp(r, "stats.Histogram.RecordDuration", n, func() {
		for i := 0; i < n; i++ {
			h.RecordDuration(time.Duration(i&1023) * time.Microsecond)
		}
	}), n)
}

// netKernels times the wire format alone and a round trip to an echo
// NetServer with one request outstanding.
func netKernels(r *run) {
	payload := make([]byte, payloadBytes)
	n := r.n(500000, 10000)
	var buf bytes.Buffer
	msg := &netproto.Message{Type: netproto.TypeRequest, Payload: payload}
	r.put("frame_ns", perOp(r, "netproto.Write+Read", n, func() {
		for i := 0; i < n; i++ {
			msg.ID = uint64(i)
			if err := netproto.Write(&buf, msg); err != nil {
				r.failf("netproto.Write: %v", err)
				return
			}
			if got, err := netproto.Read(&buf); err != nil || got.ID != msg.ID {
				r.failf("netproto.Read: id %v err %v", got, err)
				return
			}
		}
	}), n)

	trips := r.n(20000, 1000)
	server := core.NewNetServer(echoServer{}, 1)
	addr, err := server.Start("127.0.0.1:0")
	if err != nil {
		r.failf("NetServer.Start: %v", err)
		return
	}
	defer server.Close()
	answered := make(chan uint64, 1) // one request outstanding at a time
	conn, err := core.DialReplica(addr, 1, func(m *netproto.Message, _ time.Time) { answered <- m.ID })
	if err != nil {
		r.failf("DialReplica: %v", err)
		return
	}
	defer conn.Close()
	rtts := make([]time.Duration, 0, trips)
	end := r.spans.begin("core.ReplicaConn round trips")
	for i := 0; i < trips; i++ {
		start := time.Now()
		if err := conn.Send(uint64(i), payload); err != nil {
			r.failf("ReplicaConn.Send: %v", err)
			break
		}
		if id := <-answered; id != uint64(i) {
			r.failf("round trip %d answered as %d", i, id)
			break
		}
		rtts = append(rtts, time.Since(start))
	}
	end()
	stats.SortDurations(rtts)
	r.put("rtt_p50_us", us(stats.PercentileOfSorted(rtts, 50)), len(rtts))
	r.put("rtt_p99_us", us(stats.PercentileOfSorted(rtts, 99)), len(rtts))
}

// scheduleKernels times load.Schedule per arrival at the run's own size: the
// constant-rate fast path and the thinning path a spike takes.
func scheduleKernels(r *run, n int) {
	seed := workload.SplitSeed(r.seed, 8)
	r.put("schedule_ns", perOp(r, "load.Schedule constant", n, func() {
		load.Schedule(load.Constant(2000), n, seed)
	}), n)
	spike := load.Spike(1000, 3000, time.Second, time.Second)
	r.put("schedule_thin_ns", perOp(r, "load.Schedule spike", n, func() {
		load.Schedule(spike, n, seed)
	}), n)
}

// statsKernels times the sort-and-summarise kernels per sample at size n.
func statsKernels(r *run, n int) {
	rng := workload.NewRand(workload.SplitSeed(r.seed, 9))
	samples := make([]time.Duration, n)
	timed := make([]stats.TimedSample, n)
	for i := range samples {
		samples[i] = time.Duration(rng.ExpFloat64() * float64(time.Millisecond))
		timed[i] = stats.TimedSample{At: time.Duration(i) * 100 * time.Microsecond, Sojourn: samples[i]}
	}
	r.put("sort_ns", perOp(r, "stats.SortDurations", n, func() { stats.SortDurations(samples) }), n)
	r.put("summary_ns", perOp(r, "stats.SummaryFromSorted", n, func() { stats.SummaryFromSorted(samples) }), n)
	r.put("window_ns", perOp(r, "stats.WindowSeries", n, func() { stats.WindowSeries(timed, 0) }), n)
}

// dispatchLoop drives a fresh SimCluster of the given shape over n Poisson
// arrivals at rho = 0.7 and returns the wall time of the bare
// RunTicks + Dispatch loop, with no result assembly.
func dispatchLoop(policy string, replicas, threads, n int, seed int64) (time.Duration, error) {
	eng, err := cluster.NewSimCluster(cluster.SimClusterConfig{
		Policy: policy, Threads: threads, Seed: seed, Replicas: expPool(replicas, time.Millisecond), ExpectedMeasured: n,
	})
	if err != nil {
		return 0, err
	}
	qps := 0.7 * float64(replicas*threads) / time.Millisecond.Seconds()
	arrivals := load.Schedule(load.Constant(qps), n, workload.SplitSeed(seed, 2))
	start := time.Now()
	for _, t := range arrivals {
		eng.RunTicks(t)
		eng.Dispatch(t, true)
	}
	return time.Since(start), nil
}

// dispatchKernels reports SimCluster's cost per dispatch where the balancer's
// scan is short (4 replicas) and where it is long (1 024).
func dispatchKernels(r *run) {
	for _, k := range []struct {
		metric, policy string
		replicas, n    int
	}{
		{"dispatch_ns_leastq_4", cluster.PolicyLeastQueue, 4, r.n(400000, 5000)},
		{"dispatch_ns_leastq_1024", cluster.PolicyLeastQueue, 1024, r.n(20000, 1000)},
		{"dispatch_ns_jsq2_1024", cluster.PolicyJSQ2, 1024, r.n(20000, 1000)},
	} {
		end := r.spans.begin("cluster.SimCluster.Dispatch " + k.policy + "/" + strconv.Itoa(k.replicas))
		d, err := dispatchLoop(k.policy, k.replicas, 1, k.n, workload.SplitSeed(r.seed, 10))
		end()
		if err != nil {
			r.failf("%s: %v", k.metric, err)
			continue
		}
		r.put(k.metric, float64(d.Nanoseconds())/float64(k.n), k.n)
	}
}

// traceKernel times the program's own recorder per observed request.
func traceKernel(r *run) {
	n := r.n(500000, 10000)
	rec := trace.NewRecorder(trace.DefaultTopK, 0)
	r.put("trace_observe_ns", perOp(r, "trace.Recorder.ObserveRequest", n, func() {
		for i := 0; i < n; i++ {
			at := time.Duration(i) * time.Microsecond
			rec.ObserveRequest(at, time.Duration(i&255), 50*time.Microsecond, 60*time.Microsecond, 0, 0, i&3, false)
		}
	}), n)
}

// processMetrics reports what the whole run allocated and its peak resident
// set, so memory traded for speed shows.
func processMetrics(r *run) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.put("alloc_mb", float64(ms.TotalAlloc)/(1<<20), 0)
	r.put("peak_rss_mb", peakRSSMB(), 0)
}

func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
