package tailbench

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"tailbench/internal/app"
	"tailbench/internal/core"
)

func TestApps(t *testing.T) {
	apps := Apps()
	want := []string{"img-dnn", "masstree", "moses", "shore", "silo", "specjbb", "sphinx", "xapian"}
	if len(apps) != len(want) {
		t.Fatalf("Apps() = %v", apps)
	}
	for i, name := range want {
		if apps[i] != name {
			t.Fatalf("Apps() = %v, want %v", apps, want)
		}
	}
}

func TestModeString(t *testing.T) {
	for mode, want := range map[Mode]string{
		ModeIntegrated: "integrated", ModeLoopback: "loopback", ModeNetworked: "networked", ModeSimulated: "simulated",
	} {
		if mode.String() != want {
			t.Errorf("%v.String() = %q", int(mode), mode.String())
		}
	}
	if !strings.Contains(Mode(42).String(), "42") {
		t.Error("unknown mode should render numerically")
	}
}

// TestRunRejectsNegativeNetworkDelay: a negative synthetic delay is an error
// on every spec, as it always was on a pipeline edge; it used to fall
// through to the 25µs default. A NaN, infinite or negative QPS is rejected
// the same way; it used to run at rate 0 or at saturation.
func TestRunRejectsNegativeNetworkDelay(t *testing.T) {
	cases := []struct {
		spec RunSpec
		want string
	}{
		{RunSpec{Mode: ModeNetworked, NetworkDelay: -time.Microsecond}, "RunSpec.NetworkDelay must not be negative (got -1µs)"},
		{RunSpec{Mode: ModeSimulated, QPS: math.NaN()}, "RunSpec.QPS must be a finite rate >= 0 (got NaN)"},
		{RunSpec{QPS: math.Inf(1)}, "RunSpec.QPS must be a finite rate >= 0 (got +Inf)"},
		{RunSpec{QPS: -1}, "RunSpec.QPS must be a finite rate >= 0 (got -1)"},
	}
	for _, tc := range cases {
		tc.spec.App = "masstree"
		if _, err := Run(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Run(%+v): err = %v, want substring %q", tc.spec, err, tc.want)
		}
	}
}

func TestRunUnknownApp(t *testing.T) {
	_, err := Run(RunSpec{App: "no-such-app"})
	var unknown ErrUnknownApp
	if !errors.As(err, &unknown) || unknown.Name != "no-such-app" {
		t.Fatalf("expected ErrUnknownApp, got %v", err)
	}
	if !strings.Contains(err.Error(), "no-such-app") {
		t.Errorf("error should name the app: %v", err)
	}
	if _, err := MeasureServiceTimes("no-such-app", 1, 1, 10); err == nil {
		t.Error("MeasureServiceTimes should reject unknown apps")
	}
	if _, err := RunClosedLoop(RunSpec{App: "no-such-app"}); err == nil {
		t.Error("RunClosedLoop should reject unknown apps")
	}
	if _, err := NewServer("no-such-app", 1, 1, 1); err == nil {
		t.Error("NewServer should reject unknown apps")
	}
}

func TestRunIntegratedMasstree(t *testing.T) {
	res, err := Run(RunSpec{
		App: "masstree", Mode: ModeIntegrated, QPS: 3000, Threads: 2,
		Requests: 400, Warmup: 80, Scale: 0.01, Seed: 7, KeepRaw: true, Validate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.App != "masstree" || res.Mode != ModeIntegrated || res.Threads != 2 {
		t.Errorf("result metadata wrong: %+v", res)
	}
	if res.Requests != 400 {
		t.Errorf("requests = %d", res.Requests)
	}
	if res.Errors != 0 {
		t.Errorf("errors = %d", res.Errors)
	}
	if res.Sojourn.P95 < res.Sojourn.P50 || res.Sojourn.P99 < res.Sojourn.P95 {
		t.Errorf("percentiles not ordered: %+v", res.Sojourn)
	}
	if len(res.SojournSamples) != 400 || len(res.SojournCDF) == 0 {
		t.Errorf("raw samples/CDF missing")
	}
	if res.String() == "" {
		t.Error("String() should be non-empty")
	}
}

func TestRunLoopbackSpecjbb(t *testing.T) {
	res, err := Run(RunSpec{
		App: "specjbb", Mode: ModeLoopback, QPS: 1000, Threads: 1,
		Requests: 200, Warmup: 40, Scale: 0.25, Seed: 3, Validate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeLoopback {
		t.Errorf("mode = %v", res.Mode)
	}
	if res.Requests != 200 || res.Errors != 0 {
		t.Errorf("requests=%d errors=%d", res.Requests, res.Errors)
	}
}

// TestRunOneReplicaResult checks the translation of a one-replica cluster
// run back into the single-server result: core's warmup rule (10% with a
// 50-request floor, negative meaning none) survives the hand-off to the
// cluster engine, whose own default has no floor, and the result is labelled
// with the configuration that ran.
func TestRunOneReplicaResult(t *testing.T) {
	f, err := factoryFor("masstree")
	if err != nil {
		t.Fatal(err)
	}
	cfg := app.Config{Scale: 0.01, Seed: 7}.Normalize()
	server, err := f.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	newClient := func(seed int64) (app.Client, error) { return f.NewClient(cfg, seed) }
	for _, tc := range []struct {
		warmup      int
		wantWarmups uint64
	}{{0, 50}, {-1, 0}} {
		res, err := runOneReplica(ModeLoopback, 0, server, newClient,
			core.RunConfig{QPS: 2000, Requests: 200, WarmupRequests: tc.warmup, Seed: 7, Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Config != core.Loopback || res.Runs != 1 {
			t.Errorf("config = %v, runs = %d; want loopback, 1", res.Config, res.Runs)
		}
		if res.Requests != 200 || res.Warmups != tc.wantWarmups || res.Errors != 0 {
			t.Errorf("warmup %d: requests=%d warmups=%d errors=%d, want 200/%d/0",
				tc.warmup, res.Requests, res.Warmups, res.Errors, tc.wantWarmups)
		}
	}
	if _, err := runOneReplica(ModeLoopback, 0, server, newClient, core.RunConfig{Requests: -1}); !errors.Is(err, core.ErrNoRequests) {
		t.Errorf("negative requests: err = %v, want ErrNoRequests", err)
	}
}

func TestRunNetworkedAddsLatency(t *testing.T) {
	base := RunSpec{
		App: "silo", QPS: 500, Threads: 1, Requests: 150, Warmup: 30, Scale: 1, Seed: 5,
		NetworkDelay: 300 * time.Microsecond,
	}
	loop := base
	loop.Mode = ModeLoopback
	lres, err := Run(loop)
	if err != nil {
		t.Fatal(err)
	}
	netw := base
	netw.Mode = ModeNetworked
	nres, err := Run(netw)
	if err != nil {
		t.Fatal(err)
	}
	if nres.Sojourn.P50 <= lres.Sojourn.P50 {
		t.Errorf("networked p50 (%v) should exceed loopback p50 (%v)", nres.Sojourn.P50, lres.Sojourn.P50)
	}
}

func TestRunRepeats(t *testing.T) {
	res, err := Run(RunSpec{
		App: "masstree", Mode: ModeIntegrated, QPS: 2000, Threads: 1,
		Requests: 150, Warmup: 30, Scale: 0.01, Seed: 11, Repeats: 2, KeepRaw: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 2 {
		t.Errorf("runs = %d", res.Runs)
	}
	if res.P95CIRelative <= 0 {
		t.Errorf("repeated runs should report a CI, got %f", res.P95CIRelative)
	}
}

func TestRunSimulatedMode(t *testing.T) {
	res, err := Run(RunSpec{
		App: "masstree", Mode: ModeSimulated, QPS: 2000, Threads: 1,
		Requests: 2000, Warmup: 200, Scale: 0.01, Seed: 13, KeepRaw: true,
		CalibrationRequests: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeSimulated {
		t.Errorf("mode = %v", res.Mode)
	}
	if res.Requests == 0 || res.Sojourn.P95 == 0 {
		t.Errorf("empty simulated result: %+v", res)
	}
	if len(res.SojournSamples) == 0 || len(res.ServiceCDF) == 0 {
		t.Errorf("simulated raw data missing")
	}
	// Ideal memory flag propagates.
	ideal, err := Run(RunSpec{
		App: "masstree", Mode: ModeSimulated, QPS: 2000, Threads: 4,
		Requests: 1000, Warmup: 100, Scale: 0.01, Seed: 13, IdealMemory: true, CalibrationRequests: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ideal.IdealMemory {
		t.Error("IdealMemory not propagated")
	}
}

func TestMeasureServiceTimesAndSaturation(t *testing.T) {
	samples, err := MeasureServiceTimes("masstree", 0.01, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 100 {
		t.Fatalf("samples = %d", len(samples))
	}
	sat := SaturationQPS(samples, 1)
	if sat <= 0 {
		t.Fatal("saturation should be positive")
	}
	if SaturationQPS(samples, 2) <= sat {
		t.Error("more threads should raise saturation")
	}
	if SaturationQPS(nil, 1) != 0 || SaturationQPS(samples, 0) != 0 {
		t.Error("degenerate inputs should give zero")
	}
}

func TestCalibrate(t *testing.T) {
	samples := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	m, err := Calibrate("moses", samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.PerfError != 1.20 {
		t.Errorf("default moses perf error = %f, want 1.20", m.PerfError)
	}
	if m.MemContention <= m.SyncOverhead {
		t.Errorf("moses should be memory-contention dominated")
	}
	if _, err := Calibrate("moses", nil, 1); err == nil {
		t.Error("empty samples should fail")
	}
}

func TestClosedLoopUnderestimatesTail(t *testing.T) {
	samples, err := MeasureServiceTimes("masstree", 0.01, 17, 100)
	if err != nil {
		t.Fatal(err)
	}
	qps := 0.9 * SaturationQPS(samples, 1)
	spec := RunSpec{App: "masstree", Mode: ModeIntegrated, QPS: qps, Threads: 1,
		Requests: 400, Warmup: 80, Scale: 0.01, Seed: 17}
	open, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Clients = 1
	closed, err := RunClosedLoop(spec)
	if err != nil {
		t.Fatal(err)
	}
	if closed.Sojourn.P95 >= open.Sojourn.P95 {
		t.Errorf("closed-loop p95 (%v) should underestimate open-loop p95 (%v)", closed.Sojourn.P95, open.Sojourn.P95)
	}
}
