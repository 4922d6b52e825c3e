package tailbench

import (
	"fmt"
	"io"
	"time"

	"tailbench/internal/trace"
)

// TraceSpec enables request-level tracing on a run: the harness records a
// span tree per measured request — queue wait, service, synthetic network
// RTT, fan-out children, hedge duplicates, and the fan-in wait on the slowest
// child — and retains the K slowest trees per window in a bounded reservoir.
// The report decomposes the retained tails into their causes (see
// TraceComponents) and the retained trees export to Chrome trace-event JSON
// via WriteChromeTrace. A nil *TraceSpec (the default) keeps tracing off and
// the dispatch hot paths allocation-free.
//
// Simulated runs produce bit-reproducible traces at a fixed seed. The
// single-server simulated mode (the calibrated application model) records no
// traces; every other path — live single-server, both cluster engines, and
// both pipeline engines — does.
type TraceSpec struct {
	// TopK is the number of slowest span trees retained per window
	// (default 8).
	TopK int
	// Window is the attribution window width on the run's time axis; zero
	// keeps the whole run as a single window.
	Window time.Duration
}

// recorder builds the internal recorder for the spec; nil spec means tracing
// off.
func (s *TraceSpec) recorder() *trace.Recorder {
	if s == nil {
		return nil
	}
	return trace.NewRecorder(s.TopK, s.Window)
}

// TraceReport is the tail-attribution report of a traced run: windowed
// decomposition of the retained tails into queueing, service, network,
// straggler, and hedge components, plus the retained span trees themselves
// (slowest first). The decomposition is exact by construction — a retained
// root's components sum to its sojourn — so a reported tail reconciles
// against its attribution.
type TraceReport = trace.Report

// TraceSpan is one node of a request's span tree.
type TraceSpan = trace.Span

// RequestTrace is one retained root request: its attribution plus the full
// span tree in canonical (Start, ID) order.
type RequestTrace = trace.RequestTrace

// TraceComponents is a root sojourn decomposed into causes:
// Queue+Service+Net+Hedge+Straggler equals the sojourn.
type TraceComponents = trace.Components

// TraceWindow is one window's tail attribution.
type TraceWindow = trace.Window

// WriteChromeTrace renders retained request traces as Chrome trace-event
// JSON: load the output in Perfetto (ui.perfetto.dev) or chrome://tracing to
// inspect fan-out critical paths visually. Each retained request renders as
// one named track; output bytes are deterministic for a given trace set.
func WriteChromeTrace(w io.Writer, traces []RequestTrace) error {
	return trace.WriteChrome(w, traces)
}

// WriteTraceAttribution renders a tail-attribution report as text: the mean
// decomposition of the retained (slowest) roots with percentage shares, the
// per-window breakdown when the report is windowed, and the single slowest
// root. The tailbench CLI prints it after every traced result, live or
// replayed by report -input. A nil or empty report prints nothing.
func WriteTraceAttribution(w io.Writer, rep *TraceReport) {
	if rep == nil || len(rep.Slowest) == 0 {
		return
	}
	fmt.Fprintf(w, "tail attribution (%d slowest of %d roots):\n", len(rep.Slowest), rep.Roots)
	writeAttrRow(w, "  ", rep.Attr)
	if len(rep.Windows) > 1 {
		fmt.Fprintf(w, "  %-16s %-9s %-12s %-12s %-12s %-12s %-12s %s\n",
			"window", "retained", "slowest", "queue", "service", "net", "hedge", "straggler")
		for _, win := range rep.Windows {
			fmt.Fprintf(w, "  %-16s %-9d %-12v %-12v %-12v %-12v %-12v %v\n",
				fmt.Sprintf("%v..%v", win.Start.Round(time.Millisecond), win.End.Round(time.Millisecond)),
				win.Retained, win.Slowest.Round(time.Microsecond),
				win.Attr.Queue.Round(time.Microsecond), win.Attr.Service.Round(time.Microsecond),
				win.Attr.Net.Round(time.Microsecond), win.Attr.Hedge.Round(time.Microsecond),
				win.Attr.Straggler.Round(time.Microsecond))
		}
	}
	worst := rep.Slowest[0]
	fmt.Fprintf(w, "  slowest root: %v at +%v (%d spans)\n",
		worst.Sojourn.Round(time.Microsecond), worst.At.Round(time.Millisecond), len(worst.Spans))
}

// writeAttrRow renders one decomposition with percentage shares of its total.
func writeAttrRow(w io.Writer, indent string, a TraceComponents) {
	total := a.Total()
	pct := func(d time.Duration) float64 {
		if total <= 0 {
			return 0
		}
		return 100 * float64(d) / float64(total)
	}
	fmt.Fprintf(w, "%squeue=%v (%.0f%%) service=%v (%.0f%%) net=%v (%.0f%%) hedge=%v (%.0f%%) straggler=%v (%.0f%%)\n",
		indent,
		a.Queue.Round(time.Microsecond), pct(a.Queue),
		a.Service.Round(time.Microsecond), pct(a.Service),
		a.Net.Round(time.Microsecond), pct(a.Net),
		a.Hedge.Round(time.Microsecond), pct(a.Hedge),
		a.Straggler.Round(time.Microsecond), pct(a.Straggler))
}
