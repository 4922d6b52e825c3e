package load

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Parse decodes the "name:arg,arg,..." shape grammar used by the CLI -shape
// flag and embedded in JSON results:
//
//	constant:QPS                      constant:2000
//	diurnal:BASE,AMPLITUDE,PERIOD     diurnal:500,300,10s
//	ramp:FROM,TO,OVER                 ramp:100,1000,30s
//	spike:BASE,PEAK,START,WIDTH       spike:500,1500,5s,2s
//	burst:LOW,HIGH,LOWDUR,HIGHDUR     burst:100,2000,2s,500ms
//	trace:INTERVAL,RATE,RATE,...      trace:1s,100,500,900,500,100
//	trace:@PATH                       trace:@rates.csv
//	trace:INTERVAL,@PATH              trace:500ms,@rates.csv
//
// The @PATH forms load the rate series from a file (see TraceFile): one
// rate per line or comma/whitespace-separated, #-comments ignored, with an
// optional interval= directive the explicit INTERVAL overrides.
//
// Rates are floats in queries per second; durations use Go duration syntax.
// Shape.Spec() of every built-in shape round-trips through Parse — which is
// why a spike's START and a burst's dwell times accept zero (their
// constructors produce such shapes) while structural durations (PERIOD,
// OVER, WIDTH, INTERVAL) must be positive.
func Parse(spec string) (Shape, error) {
	name, argStr, _ := strings.Cut(strings.TrimSpace(spec), ":")
	name = strings.ToLower(strings.TrimSpace(name))
	p := &argParser{shape: name}
	var args []string
	if argStr != "" {
		args = strings.Split(argStr, ",")
		for i := range args {
			args[i] = strings.TrimSpace(args[i])
		}
	}
	switch name {
	case "constant":
		p.want(args, 1)
		qps := p.rate(args, 0)
		return p.done(Constant(qps))
	case "diurnal":
		p.want(args, 3)
		base, amp, period := p.rate(args, 0), p.rate(args, 1), p.durPositive(args, 2)
		return p.done(Diurnal(base, amp, period))
	case "ramp":
		p.want(args, 3)
		from, to, over := p.rate(args, 0), p.rate(args, 1), p.durPositive(args, 2)
		return p.done(Ramp(from, to, over))
	case "spike":
		p.want(args, 4)
		base, peak := p.rate(args, 0), p.rate(args, 1)
		start, width := p.dur(args, 2), p.durPositive(args, 3)
		return p.done(Spike(base, peak, start, width))
	case "burst":
		p.want(args, 4)
		low, high := p.rate(args, 0), p.rate(args, 1)
		lowDur, highDur := p.dur(args, 2), p.dur(args, 3)
		if p.err == nil && lowDur+highDur <= 0 {
			p.err = fmt.Errorf("load: burst: at least one dwell time must be positive")
		}
		return p.done(Burst(low, high, lowDur, highDur))
	case "trace":
		// The @file forms delegate the rate series to a trace file.
		if len(args) == 1 && strings.HasPrefix(args[0], "@") {
			return TraceFile(strings.TrimPrefix(args[0], "@"), 0)
		}
		if len(args) == 2 && strings.HasPrefix(args[1], "@") {
			interval := p.durPositive(args, 0)
			if p.err != nil {
				return nil, p.err
			}
			return TraceFile(strings.TrimPrefix(args[1], "@"), interval)
		}
		if len(args) < 2 {
			return nil, fmt.Errorf("load: trace needs an interval and at least one rate, or a @file (got %q)", spec)
		}
		interval := p.durPositive(args, 0)
		rates := make([]float64, 0, len(args)-1)
		for i := 1; i < len(args); i++ {
			rates = append(rates, p.rate(args, i))
		}
		return p.done(Trace(interval, rates))
	default:
		return nil, fmt.Errorf("load: unknown shape %q (available: constant, diurnal, ramp, spike, burst, trace)", name)
	}
}

// argParser accumulates the first parse error while the shape's arguments
// are consumed positionally, so each case reads as the grammar line it
// implements.
type argParser struct {
	shape string
	err   error
}

// want records an arity error.
func (p *argParser) want(args []string, n int) {
	if p.err == nil && len(args) != n {
		p.err = fmt.Errorf("load: %s takes %d arguments, got %d", p.shape, n, len(args))
	}
}

// done resolves the parse: the shape if every argument was valid, else the
// first error. Finite arguments can still overflow a diurnal's peak
// (BASE+AMPLITUDE), which would make its rate infinite.
func (p *argParser) done(s Shape) (Shape, error) {
	if p.err != nil {
		return nil, p.err
	}
	if math.IsInf(s.MaxRate(), 0) {
		return nil, fmt.Errorf("load: %s: peak rate overflows (got %s)", p.shape, s.Spec())
	}
	return s, nil
}

// rate parses the i-th argument as a QPS figure.
func (p *argParser) rate(args []string, i int) float64 {
	if p.err != nil || i >= len(args) {
		return 0
	}
	q, err := strconv.ParseFloat(args[i], 64)
	if err != nil || !validRate(q) {
		p.err = fmt.Errorf("load: %s: bad rate %q (want a number of queries per second >= 0)", p.shape, args[i])
		return 0
	}
	return q
}

// validRate reports whether a parsed rate is finite and >= 0: ParseFloat
// accepts "NaN" and "Inf", which the shape constructors would silently
// clamp to 0.
func validRate(q float64) bool { return q >= 0 && !math.IsInf(q, 1) }

// dur parses the i-th argument as a non-negative duration.
func (p *argParser) dur(args []string, i int) time.Duration {
	if p.err != nil || i >= len(args) {
		return 0
	}
	d, err := time.ParseDuration(args[i])
	if err != nil || d < 0 {
		p.err = fmt.Errorf("load: %s: bad duration %q (want a non-negative Go duration like 10s)", p.shape, args[i])
		return 0
	}
	return d
}

// durPositive parses the i-th argument as a strictly positive duration.
func (p *argParser) durPositive(args []string, i int) time.Duration {
	d := p.dur(args, i)
	if p.err == nil && d <= 0 {
		p.err = fmt.Errorf("load: %s: bad duration %q (want a positive Go duration like 10s)", p.shape, args[i])
	}
	return d
}
