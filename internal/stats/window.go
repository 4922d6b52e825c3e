package stats

import (
	"time"
)

// TimedSample is one request's latency tagged with its position on the run's
// time axis (the scheduled arrival offset for open-loop harnesses, virtual
// time for simulations). Windowed accounting bins these to expose how the
// tail evolves as a time-varying load shape plays out — a spike's latency
// excursion is invisible in whole-run percentiles but obvious per window.
type TimedSample struct {
	// At is the sample's offset from the start of the run.
	At time.Duration
	// Sojourn is the end-to-end latency.
	Sojourn time.Duration
	// Err marks failed requests; they count toward the window's error tally
	// but not its latency statistics.
	Err bool
}

// WindowStat is one window of the time-windowed latency series. Windowed
// accounting is what makes time-varying load measurable: a tail excursion
// during a spike is visible per window where a whole-run percentile would
// average it away. The public tailbench.WindowStats is this type, so the
// field order and tags are the saved-JSON schema.
type WindowStat struct {
	// Start and End bound the window as offsets from the start of the run.
	Start time.Duration
	End   time.Duration
	// Requests counts measured requests whose scheduled arrival fell in
	// the window; Errors counts failed ones (not included in Requests or
	// the percentiles).
	Requests uint64
	Errors   uint64 `json:",omitempty"`
	// OfferedQPS is the load shape's mean rate over the window (filled by
	// callers that know the shape; zero otherwise).
	OfferedQPS float64
	// AchievedQPS is Requests divided by the window width.
	AchievedQPS float64
	// Replicas is the time-weighted mean provisioned replica count over the
	// window — the scaling timeline of an elastic cluster run (a fixed
	// cluster reports its constant count; single-server runs report zero).
	Replicas float64 `json:",omitempty"`
	// Mean, P50, P95, P99, and Max summarize the window's sojourn times.
	Mean time.Duration
	P50  time.Duration
	P95  time.Duration
	P99  time.Duration
	Max  time.Duration
}

// DefaultWindowCount is the number of windows the series defaults to when no
// explicit width is given: enough resolution to see a spike or a diurnal
// swing without shredding the per-window sample counts.
const DefaultWindowCount = 20

// WindowSeries bins timed samples into fixed-width windows on a grid
// anchored at t=0 and summarizes each. A non-positive width picks one that
// yields DefaultWindowCount windows over the observed span. Interior empty
// windows are kept (with zero counts) so a zero-rate phase of a load shape
// shows up as such; leading windows before the first sample are trimmed —
// they cover the warmup region, whose samples are deliberately discarded,
// and reporting them as "offered load, nothing achieved" would misread as
// dropped requests.
func WindowSeries(samples []TimedSample, width time.Duration) []WindowStat {
	if len(samples) == 0 {
		return nil
	}
	first := samples[0].At
	var span time.Duration
	for _, s := range samples {
		if s.At > span {
			span = s.At
		}
		if s.At < first {
			first = s.At
		}
	}
	if width <= 0 {
		width = span / DefaultWindowCount
		if width <= 0 {
			width = time.Millisecond
		}
	}
	n := int(span/width) + 1
	buckets := make([][]time.Duration, n)
	errs := make([]uint64, n)
	for _, s := range samples {
		b := int(s.At / width)
		if b < 0 {
			b = 0
		}
		if b >= n {
			b = n - 1
		}
		if s.Err {
			errs[b]++
			continue
		}
		buckets[b] = append(buckets[b], s.Sojourn)
	}
	skip := int(first / width)
	if skip < 0 {
		skip = 0
	}
	out := make([]WindowStat, 0, n-skip)
	for b := skip; b < n; b++ {
		w := WindowStat{
			Start:    time.Duration(b) * width,
			End:      time.Duration(b+1) * width,
			Requests: uint64(len(buckets[b])),
			Errors:   errs[b],
		}
		if secs := width.Seconds(); secs > 0 {
			w.AchievedQPS = float64(len(buckets[b])) / secs
		}
		if len(buckets[b]) > 0 {
			sorted := buckets[b]
			SortDurations(sorted)
			var sum time.Duration
			for _, d := range sorted {
				sum += d
			}
			w.Mean = sum / time.Duration(len(sorted))
			w.P50 = PercentileOfSorted(sorted, 50)
			w.P95 = PercentileOfSorted(sorted, 95)
			w.P99 = PercentileOfSorted(sorted, 99)
			w.Max = sorted[len(sorted)-1]
		}
		out = append(out, w)
	}
	return out
}
