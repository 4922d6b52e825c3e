package core

import (
	"slices"
	"testing"
	"time"
)

// TestWaitUntil pins the pacer's two promises: it never returns before the
// target, and it does not overshoot by the runtime's 1 ms timer tick (a
// time.Sleep-paced WaitUntil overshoots a 500 µs wait by about 570 µs).
func TestWaitUntil(t *testing.T) {
	const waits, gap = 200, 500 * time.Microsecond
	overshoot := make([]time.Duration, waits)
	for i := range overshoot {
		target := time.Now().Add(gap)
		WaitUntil(target)
		overshoot[i] = time.Since(target)
		if overshoot[i] < 0 {
			t.Fatalf("wait %d returned %v before its target", i, -overshoot[i])
		}
	}
	slices.Sort(overshoot)
	if p50 := overshoot[waits/2]; p50 > 50*time.Microsecond {
		t.Errorf("WaitUntil overshoot p50 = %v over %d waits of %v, want < 50µs", p50, waits, gap)
	}
}

// TestHarnessFloor measures the harness against an echo server at 2,000 QPS:
// with no service time, the reported sojourn is the harness's own. The
// loopback row catches a pacer that sleeps outside the netpoller, which
// starves the connection goroutines it paces.
func TestHarnessFloor(t *testing.T) {
	cfg := RunConfig{QPS: 2000, Threads: 1, Requests: 2000, WarmupRequests: 100, Seed: 23}
	for _, tc := range []struct {
		kind ConfigKind
		max  time.Duration
	}{
		{Integrated, 100 * time.Microsecond},
		{Loopback, 200 * time.Microsecond},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			res, err := SingleRun(tc.kind, &fakeServer{name: "echo"}, fakeFactory(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Sojourn.P50 >= tc.max {
				t.Errorf("echo sojourn p50 = %v at %v QPS, want < %v", res.Sojourn.P50, cfg.QPS, tc.max)
			}
		})
	}
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool
