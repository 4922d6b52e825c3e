package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tailbench/internal/app"
	"tailbench/internal/workload"
)

// fakeServer is a synthetic latency-critical application with a configurable
// deterministic service time, used to test the harness in isolation from the
// real applications.
type fakeServer struct {
	name     string
	busyWork time.Duration
	fail     bool
	calls    atomic.Int64
}

func (s *fakeServer) Name() string { return s.name }

func (s *fakeServer) Process(req app.Request) (app.Response, error) {
	s.calls.Add(1)
	if s.fail {
		return nil, errors.New("injected failure")
	}
	// Busy-wait rather than sleep so that worker threads model CPU-bound
	// request processing (sleeping would let a single thread appear to
	// process unlimited load).
	deadline := time.Now().Add(s.busyWork)
	for time.Now().Before(deadline) {
	}
	return app.Response(append([]byte("echo:"), req...)), nil
}

func (s *fakeServer) Close() error { return nil }

// fakeClient generates numbered requests and validates echoes.
type fakeClient struct {
	seq      int
	failSeen bool
}

func (c *fakeClient) NextRequest() app.Request {
	c.seq++
	return app.Request(fmt.Sprintf("req-%d", c.seq))
}

func (c *fakeClient) CheckResponse(req app.Request, resp app.Response) error {
	if !bytes.HasPrefix(resp, []byte("echo:")) || !bytes.HasSuffix(resp, req) {
		c.failSeen = true
		return app.BadResponsef("bad echo %q for %q", resp, req)
	}
	return nil
}

func fakeFactory() ClientFactory {
	return func(seed int64) (app.Client, error) { return &fakeClient{}, nil }
}

func TestConfigKindString(t *testing.T) {
	for kind, want := range map[ConfigKind]string{
		Integrated: "integrated", Loopback: "loopback", Networked: "networked", Simulated: "simulated",
	} {
		if kind.String() != want {
			t.Errorf("%v.String() = %q", kind, kind.String())
		}
	}
	if !strings.Contains(ConfigKind(42).String(), "42") {
		t.Errorf("unknown kind should render numerically")
	}
}

func TestRunConfigDefaults(t *testing.T) {
	c := RunConfig{}.Normalize()
	if c.Threads != 1 || c.Requests != 1000 || c.WarmupRequests != 100 || c.Clients != 2 || c.Seed != 1 {
		t.Errorf("defaults: %+v", c)
	}
	if c.Timeout <= 0 {
		t.Errorf("default timeout not set")
	}
	c = RunConfig{Requests: 100}.Normalize()
	if c.WarmupRequests != 50 {
		t.Errorf("warmup floor should be 50, got %d", c.WarmupRequests)
	}
	// Negative means explicitly no warmup (0 is taken by the default).
	c = RunConfig{Requests: 100, WarmupRequests: -1}.Normalize()
	if c.WarmupRequests != 0 {
		t.Errorf("negative warmup should mean none, got %d", c.WarmupRequests)
	}
	c = RunConfig{Threads: 16}.Normalize()
	if c.Clients != 16 {
		t.Errorf("clients should cap at 16, got %d", c.Clients)
	}
	if err := (RunConfig{Requests: -1}).validate(); !errors.Is(err, ErrNoRequests) {
		t.Errorf("negative requests should fail validation")
	}
}

func TestCollectorWarmupAndErrors(t *testing.T) {
	c := NewCollector(true)
	c.Record(Sample{Sojourn: time.Millisecond, Warmup: true})
	c.Record(Sample{Sojourn: time.Millisecond, Err: true})
	c.Record(Sample{Queue: time.Microsecond, Service: 2 * time.Microsecond, Sojourn: 3 * time.Microsecond})
	if c.Count() != 1 {
		t.Errorf("count = %d, want 1 (warmup and errors excluded)", c.Count())
	}
	if c.Errors() != 1 {
		t.Errorf("errors = %d", c.Errors())
	}
	snap := c.snapshot()
	if snap.warmups != 1 || snap.errors != 1 || snap.count != 1 {
		t.Errorf("snapshot counters: %+v", snap)
	}
	if snap.sojourn.P95 != 3*time.Microsecond {
		t.Errorf("p95 = %v", snap.sojourn.P95)
	}
	if len(snap.rawSojourn) != 1 {
		t.Errorf("raw samples = %d", len(snap.rawSojourn))
	}
}

func TestCollectorHistogramMode(t *testing.T) {
	c := NewCollector(false)
	for i := 0; i < 1000; i++ {
		c.Record(Sample{Queue: time.Duration(i) * time.Microsecond, Service: time.Millisecond, Sojourn: time.Duration(i+1000) * time.Microsecond})
	}
	snap := c.snapshot()
	if snap.rawSojourn != nil {
		t.Errorf("histogram mode should not keep raw samples")
	}
	if snap.sojourn.Count != 1000 {
		t.Errorf("count = %d", snap.sojourn.Count)
	}
	if len(snap.sojournCDF) == 0 || len(snap.serviceCDF) == 0 {
		t.Errorf("CDFs should be populated from histograms")
	}
}

func TestTrafficShaperSchedule(t *testing.T) {
	ts := NewTrafficShaper(1000, 5)
	offsets := ts.Schedule(1000)
	if len(offsets) != 1000 {
		t.Fatalf("len = %d", len(offsets))
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			t.Fatalf("offsets must be non-decreasing at %d", i)
		}
	}
	// Mean inter-arrival gap should be ~1ms at 1000 QPS.
	mean := offsets[len(offsets)-1] / time.Duration(len(offsets))
	if mean < 800*time.Microsecond || mean > 1200*time.Microsecond {
		t.Errorf("mean gap = %v, want ~1ms", mean)
	}
	// Saturation schedule is all zeros.
	sat := NewTrafficShaper(0, 5).Schedule(10)
	for _, o := range sat {
		if o != 0 {
			t.Errorf("saturation schedule should be zero offsets")
		}
	}
}

func TestRunIntegratedBasic(t *testing.T) {
	srv := &fakeServer{name: "fake", busyWork: 50 * time.Microsecond}
	cfg := RunConfig{QPS: 2000, Threads: 2, Requests: 300, WarmupRequests: 50, Seed: 7, KeepRaw: true, Validate: true}
	res, err := RunIntegrated(srv, fakeFactory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 300 {
		t.Errorf("requests = %d, want 300", res.Requests)
	}
	if res.Warmups != 50 {
		t.Errorf("warmups = %d, want 50", res.Warmups)
	}
	if res.Errors != 0 {
		t.Errorf("errors = %d", res.Errors)
	}
	if res.Config != Integrated {
		t.Errorf("config = %v", res.Config)
	}
	if res.Service.Mean < 40*time.Microsecond {
		t.Errorf("mean service %v should be at least the busy work", res.Service.Mean)
	}
	if res.Sojourn.P95 < res.Service.P50 {
		t.Errorf("sojourn p95 (%v) should not be below median service time (%v)", res.Sojourn.P95, res.Service.P50)
	}
	if res.AchievedQPS <= 0 {
		t.Errorf("achieved QPS should be positive")
	}
	if int(srv.calls.Load()) != 350 {
		t.Errorf("server processed %d requests, want 350", srv.calls.Load())
	}
	if len(res.SojournSamples) != 300 {
		t.Errorf("raw samples = %d", len(res.SojournSamples))
	}
	if res.String() == "" {
		t.Error("Result.String should be non-empty")
	}
}

func TestRunIntegratedValidationCountsErrors(t *testing.T) {
	srv := &fakeServer{name: "fail", fail: true}
	cfg := RunConfig{QPS: 0, Threads: 1, Requests: 50, WarmupRequests: 10, Seed: 3, Validate: true}
	res, err := RunIntegrated(srv, fakeFactory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 50 {
		t.Errorf("errors = %d, want 50 (all measured requests fail)", res.Errors)
	}
	if res.Requests != 0 {
		t.Errorf("requests = %d, want 0", res.Requests)
	}
}

func TestRunIntegratedArgValidation(t *testing.T) {
	if _, err := RunIntegrated(nil, fakeFactory(), RunConfig{}); !errors.Is(err, ErrNilServer) {
		t.Errorf("nil server: %v", err)
	}
	if _, err := RunIntegrated(&fakeServer{}, nil, RunConfig{}); !errors.Is(err, ErrNilClient) {
		t.Errorf("nil client: %v", err)
	}
	if _, err := RunIntegrated(&fakeServer{}, fakeFactory(), RunConfig{Requests: -5}); !errors.Is(err, ErrNoRequests) {
		t.Errorf("bad requests: %v", err)
	}
	factoryErr := func(seed int64) (app.Client, error) { return nil, errors.New("boom") }
	if _, err := RunIntegrated(&fakeServer{}, factoryErr, RunConfig{Requests: 10}); err == nil {
		t.Errorf("client factory errors should propagate")
	}
}

func TestQueuingGrowsWithLoad(t *testing.T) {
	// At loads near saturation, sojourn latency should exceed the low-load
	// latency because of queuing — the central observation behind Fig. 3.
	srv := &fakeServer{name: "fake", busyWork: 100 * time.Microsecond}
	low, err := RunIntegrated(srv, fakeFactory(), RunConfig{QPS: 500, Threads: 1, Requests: 400, WarmupRequests: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	high, err := RunIntegrated(srv, fakeFactory(), RunConfig{QPS: 8000, Threads: 1, Requests: 400, WarmupRequests: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Compare queue time, not sojourn: sojourn includes dispatcher lateness
	// (measured from the scheduled instant, by design), and on a slow or
	// single-CPU machine an OS sleep overshoot at low load can add several
	// milliseconds of lateness noise that swamps the queuing signal this
	// test is about.
	if high.Queue.P95 <= low.Queue.P95 {
		t.Errorf("queue p95 at 80%%+ load (%v) should exceed p95 at 5%% load (%v)", high.Queue.P95, low.Queue.P95)
	}
	if high.Queue.Mean <= low.Queue.Mean {
		t.Errorf("queuing time should grow with load: %v vs %v", high.Queue.Mean, low.Queue.Mean)
	}
}

func TestNetServerStartClose(t *testing.T) {
	ns := NewNetServer(&fakeServer{name: "fake"}, 0)
	addr, err := ns.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if ns.Addr() != addr || addr == "" {
		t.Errorf("Addr() = %q, want %q", ns.Addr(), addr)
	}
	if err := ns.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := ns.Close(); err != nil {
		t.Errorf("double close should be a no-op: %v", err)
	}
	if NewNetServer(&fakeServer{}, 0).Addr() != "" {
		t.Errorf("Addr before Start should be empty")
	}
}

func TestRunClosedLoop(t *testing.T) {
	srv := &fakeServer{name: "fake", busyWork: 30 * time.Microsecond}
	cfg := RunConfig{Threads: 2, Clients: 2, Requests: 200, WarmupRequests: 40, Seed: 23, KeepRaw: true}
	res, err := RunClosedLoop(srv, fakeFactory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 200 {
		t.Errorf("requests = %d", res.Requests)
	}
	// Closed-loop latency contains no queuing component by construction.
	if res.Queue.Max != 0 {
		t.Errorf("closed-loop queue time should be zero, got %v", res.Queue.Max)
	}
	if _, err := RunClosedLoop(nil, fakeFactory(), cfg); !errors.Is(err, ErrNilServer) {
		t.Errorf("nil server: %v", err)
	}
	if _, err := RunClosedLoop(srv, nil, cfg); !errors.Is(err, ErrNilClient) {
		t.Errorf("nil factory: %v", err)
	}
}

func TestCoordinatedOmission(t *testing.T) {
	// The closed-loop tester underestimates tail latency at a load the
	// open-loop harness measures as heavily queued. Drive both at the same
	// offered load near saturation of the fake app (1/100us = 10k QPS).
	srv := &fakeServer{name: "fake", busyWork: 100 * time.Microsecond}
	qps := 9000.0
	open, err := RunIntegrated(srv, fakeFactory(), RunConfig{QPS: qps, Threads: 1, Requests: 500, WarmupRequests: 50, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	closed, err := RunClosedLoop(srv, fakeFactory(), RunConfig{QPS: qps, Threads: 1, Clients: 1, Requests: 500, WarmupRequests: 50, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if closed.Sojourn.P95 >= open.Sojourn.P95 {
		t.Errorf("closed-loop p95 (%v) should underestimate open-loop p95 (%v) near saturation (coordinated omission)",
			closed.Sojourn.P95, open.Sojourn.P95)
	}
}

func TestMeasureServiceTimes(t *testing.T) {
	srv := &fakeServer{name: "fake", busyWork: 40 * time.Microsecond}
	samples, err := MeasureServiceTimes(srv, fakeFactory(), 100, 31)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 100 {
		t.Fatalf("samples = %d", len(samples))
	}
	for _, s := range samples {
		if s < 35*time.Microsecond {
			t.Fatalf("service sample %v below busy work", s)
		}
	}
	if _, err := MeasureServiceTimes(srv, fakeFactory(), 0, 31); err != nil {
		t.Errorf("zero requests should use a default: %v", err)
	}
}

func TestRunRepeated(t *testing.T) {
	srv := &fakeServer{name: "fake", busyWork: 30 * time.Microsecond}
	cfg := RunConfig{QPS: 1000, Threads: 1, Requests: 150, WarmupRequests: 30, Seed: 37, KeepRaw: true}
	var seeds []int64
	res, err := RunRepeated(2, cfg, func(c RunConfig) (*Result, error) {
		seeds = append(seeds, c.Seed)
		return RunIntegrated(srv, fakeFactory(), c)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 2 {
		t.Errorf("runs = %d, want 2", res.Runs)
	}
	if want := []int64{workload.SplitSeed(37, 1), workload.SplitSeed(37, 2)}; !slices.Equal(seeds, want) {
		t.Errorf("per-run seeds = %v, want %v", seeds, want)
	}
	if res.Requests != 300 {
		t.Errorf("aggregated requests = %d, want 300", res.Requests)
	}
	if res.P95CI.Runs != res.Runs {
		t.Errorf("CI runs = %d, want %d", res.P95CI.Runs, res.Runs)
	}
	if len(res.SojournSamples) != 300 {
		t.Errorf("pooled samples = %d", len(res.SojournSamples))
	}
}

func TestRunRepeatedSingleRunPassthrough(t *testing.T) {
	srv := &fakeServer{name: "fake", busyWork: 10 * time.Microsecond}
	cfg := RunConfig{QPS: 500, Threads: 1, Requests: 80, WarmupRequests: 20, Seed: 41}
	res, err := RunRepeated(1, cfg, func(c RunConfig) (*Result, error) {
		if c.Seed != cfg.Seed {
			t.Errorf("a single run got seed %d, want the configured %d", c.Seed, cfg.Seed)
		}
		return RunIntegrated(srv, fakeFactory(), c)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 1 {
		t.Errorf("runs = %d", res.Runs)
	}
}
