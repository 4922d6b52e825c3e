package core

import (
	"runtime"
	"time"

	"tailbench/internal/load"
)

// TrafficShaper produces the open-loop arrival schedule (Sec. IV-A): request
// arrival instants drawn from a Poisson process whose rate follows a
// load.Shape — constant for the paper's original methodology, or any
// time-varying profile (diurnal, ramp, spike, burst, trace) realized by
// thinning a non-homogeneous Poisson process. The shaper is open-loop by
// construction — arrival instants are computed up front, independent of when
// (or whether) responses come back, which is what avoids the
// coordinated-omission pitfall of closed-loop load testers.
type TrafficShaper struct {
	shape load.Shape
	seed  int64
}

// NewTrafficShaper returns a shaper that targets a constant request rate.
// A non-positive qps produces a zero-gap schedule (saturation testing).
// It is shorthand for NewShapedTrafficShaper(load.Constant(qps), seed) and
// produces bit-identical schedules to the pre-LoadShape harness.
func NewTrafficShaper(qps float64, seed int64) *TrafficShaper {
	return NewShapedTrafficShaper(load.Constant(qps), seed)
}

// NewShapedTrafficShaper returns a shaper that follows the given arrival
// shape. A nil shape (or one with a non-positive peak rate) produces a
// zero-gap schedule (saturation testing).
func NewShapedTrafficShaper(shape load.Shape, seed int64) *TrafficShaper {
	return &TrafficShaper{shape: shape, seed: seed}
}

// Schedule returns n arrival offsets relative to the start of the run, in
// non-decreasing order.
func (ts *TrafficShaper) Schedule(n int) []time.Duration {
	return load.Schedule(ts.shape, n, ts.seed)
}

// Shape returns the arrival-rate profile the shaper follows.
func (ts *TrafficShaper) Shape() load.Shape { return ts.shape }

// WaitUntil sleeps until the target time. It parks in Sleep (microsecond
// resolution on Linux) until the final 100 µs and spins the rest, so that
// sub-millisecond inter-arrival gaps are honored without the wait holding a
// core the workers it paces need. Late arrivals are simply issued
// immediately; because sojourn time is measured from the *scheduled* arrival
// instant, dispatcher lag shows up as latency instead of silently thinning
// the offered load.
func WaitUntil(target time.Time) {
	const spinWindow = 100 * time.Microsecond
	for {
		now := time.Now()
		remaining := target.Sub(now)
		if remaining <= 0 {
			return
		}
		if remaining > spinWindow {
			Sleep(remaining - spinWindow)
			continue
		}
		// Busy-wait the final stretch, yielding the processor between polls
		// so the wait cannot starve the worker goroutines it is pacing.
		for time.Now().Before(target) {
			runtime.Gosched()
		}
		return
	}
}
