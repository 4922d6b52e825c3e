package tailbench

import (
	"fmt"
	"io"
	"time"

	"tailbench/internal/load"
	"tailbench/internal/stats"
)

// LoadShape is a pluggable arrival process: a time-varying offered-load
// profile the open-loop traffic shaper realizes as a non-homogeneous Poisson
// process (by thinning). It generalizes the scalar QPS field — which remains
// shorthand for Constant — to diurnal cycles, ramps, spikes, on-off bursts,
// and replayed rate traces, across every measurement mode and the cluster
// harness.
//
// Shapes are deterministic functions of the offset from the start of the
// run, so shaped runs stay exactly reproducible given a seed. Custom shapes
// can be supplied by implementing the interface; Rate must be deterministic
// and MaxRate must bound it.
type LoadShape = load.Shape

// Constant returns the constant-rate Poisson arrival process — the paper's
// original open-loop methodology. RunSpec{QPS: x} is shorthand for
// RunSpec{Load: Constant(x)} and behaves identically.
func Constant(qps float64) LoadShape { return load.Constant(qps) }

// Diurnal returns a sinusoidal rate profile base + amplitude*sin(2πt/period),
// clamped at zero — a compressed day/night traffic cycle.
func Diurnal(base, amplitude float64, period time.Duration) LoadShape {
	return load.Diurnal(base, amplitude, period)
}

// Ramp returns a profile that moves linearly from one rate to another over
// the given duration and holds the final rate afterwards.
func Ramp(from, to float64, over time.Duration) LoadShape { return load.Ramp(from, to, over) }

// Spike returns a base rate with a rectangular excursion to peak during
// [start, start+width) — the flash-crowd scenario.
func Spike(base, peak float64, start, width time.Duration) LoadShape {
	return load.Spike(base, peak, start, width)
}

// Burst returns a periodic on-off profile: each cycle dwells at the low rate
// for lowDur, then at the high rate for highDur (the deterministic envelope
// of an MMPP on-off source).
func Burst(low, high float64, lowDur, highDur time.Duration) LoadShape {
	return load.Burst(low, high, lowDur, highDur)
}

// Trace returns a piecewise-constant profile that replays the given rate
// series, one rate per interval, holding the final rate beyond the end of
// the trace.
func Trace(interval time.Duration, rates []float64) LoadShape { return load.Trace(interval, rates) }

// TraceFile loads a rate series from a file into a Trace shape — the replay
// path from production rate logs. Rates are separated by commas, whitespace,
// or newlines; blank lines and #-comments are ignored; an optional
// "interval=500ms" directive before the rates declares the file's sampling
// interval. A positive interval argument overrides the directive; zero
// defers to it (default 1s). The returned shape's Spec() renders the inline
// trace grammar, so saved results stay self-describing without the file.
func TraceFile(path string, interval time.Duration) (LoadShape, error) {
	return load.TraceFile(path, interval)
}

// ParseLoadShape decodes the "name:arg,arg,..." shape grammar used by the
// CLI -shape flag and embedded in JSON results (Result.ShapeSpec):
//
//	constant:2000
//	diurnal:500,300,10s
//	ramp:100,1000,30s
//	spike:500,1500,5s,2s
//	burst:100,2000,2s,500ms
//	trace:1s,100,500,900,500,100
//	trace:@rates.csv
//	trace:500ms,@rates.csv
//
// The @PATH forms load the rate series from a file (see TraceFile). Every
// built-in shape's Spec() round-trips through ParseLoadShape.
func ParseLoadShape(spec string) (LoadShape, error) { return load.Parse(spec) }

// WindowStats is one window of the time-windowed latency series: its bounds,
// offered and achieved rates, mean provisioned replica count, and sojourn
// percentiles. Windowed accounting is what makes time-varying load
// measurable: a tail excursion during a spike is visible per window where a
// whole-run percentile would average it away. It is the engines' own window
// type, shared by every result block.
type WindowStats = stats.WindowStat

// WriteWindowTable renders a windowed latency series as an aligned text
// table (one row per window: offered and achieved QPS, sojourn percentiles,
// request count). The tailbench CLI prints it in every result's view, live
// or replayed by report -input. A nil or empty series writes nothing.
func WriteWindowTable(w io.Writer, windows []WindowStats) {
	if len(windows) == 0 {
		return
	}
	// The replica column only appears when some window carries membership
	// accounting (cluster runs); single-server series stay unchanged.
	withReplicas := false
	for _, win := range windows {
		if win.Replicas > 0 {
			withReplicas = true
			break
		}
	}
	repl := func(win WindowStats) string {
		if !withReplicas {
			return ""
		}
		return fmt.Sprintf(" %-6.1f", win.Replicas)
	}
	header := ""
	if withReplicas {
		header = " repl  "
	}
	fmt.Fprintf(w, "%-21s %-10s %-10s%s %-12s %-12s %-12s %s\n",
		"window", "offered", "achieved", header, "p50", "p95", "p99", "n")
	for _, win := range windows {
		fmt.Fprintf(w, "%-21s %-10.1f %-10.1f%s %-12v %-12v %-12v %d\n",
			fmt.Sprintf("%v-%v", win.Start.Round(time.Microsecond), win.End.Round(time.Microsecond)),
			win.OfferedQPS, win.AchievedQPS, repl(win),
			win.P50.Round(time.Microsecond), win.P95.Round(time.Microsecond), win.P99.Round(time.Microsecond),
			win.Requests)
	}
}
