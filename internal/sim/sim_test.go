package sim

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"tailbench/internal/stats"
)

func calibratedModel(t *testing.T, app string, mem, sync float64) *AppModel {
	t.Helper()
	samples := make([]time.Duration, 2000)
	r := rand.New(rand.NewSource(3))
	for i := range samples {
		samples[i] = time.Duration(200+r.ExpFloat64()*800) * time.Microsecond
	}
	m, err := Calibrate(app, samples, 1.2, mem, sync)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCalibrate(t *testing.T) {
	if _, err := Calibrate("x", nil, 1, 0, 0); !errors.Is(err, stats.ErrEmptyDistribution) {
		t.Errorf("empty calibration should fail: %v", err)
	}
	m, err := Calibrate("x", []time.Duration{time.Millisecond}, 0, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if m.PerfError != 1 {
		t.Errorf("non-positive perf error should clamp to 1, got %f", m.PerfError)
	}
}

func TestDefaults(t *testing.T) {
	// The case-study coefficients: moses is memory-bound, silo is
	// synchronization-bound.
	mMem, mSync := DefaultContention("moses")
	sMem, sSync := DefaultContention("silo")
	if mMem <= mSync {
		t.Errorf("moses should be dominated by memory contention (%f vs %f)", mMem, mSync)
	}
	if sSync <= sMem {
		t.Errorf("silo should be dominated by synchronization (%f vs %f)", sSync, sMem)
	}
	if m, s := DefaultContention("unknown-app"); m <= 0 || s <= 0 {
		t.Errorf("unknown apps get default coefficients")
	}
	for _, app := range []string{"xapian", "masstree", "moses", "sphinx", "img-dnn", "specjbb", "silo", "shore", "other"} {
		if DefaultPerfError(app) <= 0 {
			t.Errorf("perf error for %s must be positive", app)
		}
	}
}

func TestRunValidation(t *testing.T) {
	m := &AppModel{Name: "empty"}
	if _, err := m.Run(RunParams{}); !errors.Is(err, ErrNoModel) {
		t.Errorf("expected ErrNoModel, got %v", err)
	}
}

func TestRunLatencyGrowsWithLoad(t *testing.T) {
	m := calibratedModel(t, "app", 0.05, 0.02)
	sat := m.SaturationQPS(1, false)
	if sat <= 0 {
		t.Fatal("saturation QPS should be positive")
	}
	low, err := m.Run(RunParams{QPS: 0.1 * sat, Threads: 1, Requests: 20000, Warmup: 1000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	high, err := m.Run(RunParams{QPS: 0.85 * sat, Threads: 1, Requests: 20000, Warmup: 1000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if high.Sojourn.P95 <= low.Sojourn.P95 {
		t.Errorf("p95 at 85%% load (%v) should exceed p95 at 10%% load (%v)", high.Sojourn.P95, low.Sojourn.P95)
	}
	if low.Queue.Mean > high.Queue.Mean {
		t.Errorf("queuing should grow with load")
	}
}

func TestPerfErrorShiftsSaturation(t *testing.T) {
	samples := []time.Duration{time.Millisecond}
	fast, _ := Calibrate("a", samples, 1.0, 0, 0)
	slow, _ := Calibrate("a", samples, 1.25, 0, 0)
	rf := fast.SaturationQPS(1, false)
	rs := slow.SaturationQPS(1, false)
	if rs >= rf {
		t.Errorf("higher perf error must lower saturation: %f vs %f", rs, rf)
	}
	ratio := rf / rs
	if ratio < 1.24 || ratio > 1.26 {
		t.Errorf("saturation ratio %f should equal the perf-error factor 1.25", ratio)
	}
}

func TestIdealMemoryRemovesContentionForMemoryBoundApp(t *testing.T) {
	// moses-like model: memory contention dominates. With 4 threads, the
	// idealized memory system should recover most of the lost capacity.
	m := calibratedModel(t, "moses-like", 0.22, 0.02)
	real4 := m.SaturationQPS(4, false)
	ideal4 := m.SaturationQPS(4, true)
	if ideal4 <= real4*1.3 {
		t.Errorf("ideal memory should substantially raise moses-like capacity: %f vs %f", ideal4, real4)
	}
	// silo-like model: synchronization dominates; ideal memory barely helps.
	s := calibratedModel(t, "silo-like", 0.02, 0.28)
	realS := s.SaturationQPS(4, false)
	idealS := s.SaturationQPS(4, true)
	if idealS > realS*1.1 {
		t.Errorf("ideal memory should not rescue a synchronization-bound app: %f vs %f", idealS, realS)
	}
}

func TestRunIdealMemoryLowersTail(t *testing.T) {
	m := calibratedModel(t, "moses-like", 0.22, 0.02)
	qps := 0.8 * m.SaturationQPS(4, false)
	realRun, err := m.Run(RunParams{QPS: qps, Threads: 4, Requests: 20000, Warmup: 1000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	idealRun, err := m.Run(RunParams{QPS: qps, Threads: 4, Requests: 20000, Warmup: 1000, Seed: 9, IdealMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	if idealRun.Sojourn.P95 >= realRun.Sojourn.P95 {
		t.Errorf("ideal memory should cut p95 for a memory-bound app: %v vs %v", idealRun.Sojourn.P95, realRun.Sojourn.P95)
	}
	if !idealRun.IdealMemory || realRun.IdealMemory {
		t.Error("IdealMemory flag not propagated")
	}
}

func TestSaturationDegenerate(t *testing.T) {
	m := &AppModel{}
	if m.SaturationQPS(1, false) != 0 {
		t.Error("no distribution should give zero saturation")
	}
	c := calibratedModel(t, "x", 0, 0)
	if c.SaturationQPS(0, false) != 0 {
		t.Error("zero threads should give zero saturation")
	}
}
