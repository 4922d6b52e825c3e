// Package stats provides the statistical machinery used by the TailBench
// harness: a high dynamic range (HDR) histogram for latency samples,
// percentile and confidence-interval computations, and empirical
// distributions used by the simulated-system backend.
//
// The HDR histogram follows the design described in the paper (Sec. IV-C):
// values spanning many orders of magnitude (1 microsecond to 1000 seconds)
// are recorded with a bounded relative error (about 1%) using a fixed number
// of buckets per decade, so memory stays logarithmic in the value range.
package stats

import (
	"fmt"
	"math"
	"time"
)

// Default histogram range: 1 microsecond to 1000 seconds, expressed in
// nanoseconds. These match the range quoted in the paper.
const (
	defaultMinValue = int64(time.Microsecond)
	defaultMaxValue = int64(1000 * time.Second)
	// bucketsPerDecade gives a worst-case relative error of about 1.16%
	// (10^(1/100) - 1), matching the "within 1% of the actual" precision
	// target from the paper.
	bucketsPerDecade = 100
)

// Histogram is a high dynamic range histogram over int64 values
// (latencies in nanoseconds). Buckets are spaced logarithmically with
// bucketsPerDecade buckets per power of ten. Values below the minimum are
// clamped into the first bucket; values above the maximum are clamped into
// the last bucket and counted as saturated.
//
// Histogram is not safe for concurrent use; callers own synchronization.
// The harness keeps one histogram per statistics stream and merges them.
type Histogram struct {
	minValue  int64
	maxValue  int64
	counts    []uint64
	total     uint64
	saturated uint64
	sum       float64
	min       int64
	max       int64
	// logMin and scale cache the bucket-index transform.
	logMin float64
	scale  float64
}

// NewHistogram returns a histogram covering [1µs, 1000s] with ~1% precision.
func NewHistogram() *Histogram {
	return NewHistogramRange(defaultMinValue, defaultMaxValue)
}

// NewHistogramRange returns a histogram covering [minValue, maxValue]
// nanoseconds. minValue must be at least 1 and less than maxValue.
func NewHistogramRange(minValue, maxValue int64) *Histogram {
	if minValue < 1 {
		minValue = 1
	}
	if maxValue <= minValue {
		maxValue = minValue * 10
	}
	decades := math.Log10(float64(maxValue) / float64(minValue))
	n := int(math.Ceil(decades*bucketsPerDecade)) + 1
	return &Histogram{
		minValue: minValue,
		maxValue: maxValue,
		counts:   make([]uint64, n),
		min:      math.MaxInt64,
		max:      math.MinInt64,
		logMin:   math.Log10(float64(minValue)),
		scale:    bucketsPerDecade,
	}
}

// bucketIndex maps a value to its bucket.
func (h *Histogram) bucketIndex(v int64) int {
	if v <= h.minValue {
		return 0
	}
	idx := int((math.Log10(float64(v)) - h.logMin) * h.scale)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	return idx
}

// bucketValue returns the representative (upper-edge) value of bucket i.
func (h *Histogram) bucketValue(i int) int64 {
	v := math.Pow(10, h.logMin+float64(i+1)/h.scale)
	iv := int64(v)
	if iv > h.maxValue {
		iv = h.maxValue
	}
	return iv
}

// Record adds a single value (in nanoseconds) to the histogram.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if v > h.maxValue {
		h.saturated++
	}
	h.counts[h.bucketIndex(v)]++
	h.total++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// RecordDuration adds a time.Duration sample.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(d.Nanoseconds()) }

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.total }

// Saturated returns the number of samples that exceeded the histogram range.
func (h *Histogram) Saturated() uint64 { return h.saturated }

// Mean returns the arithmetic mean of recorded samples in nanoseconds.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min returns the smallest recorded value, or 0 if empty.
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value, or 0 if empty.
func (h *Histogram) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Percentile returns the value at percentile p (0 < p <= 100) in nanoseconds.
// The exact recorded minimum and maximum are returned for the extreme
// percentiles so that Percentile(100) == Max().
func (h *Histogram) Percentile(p float64) int64 {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := h.bucketValue(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// PercentileDuration is Percentile expressed as a time.Duration.
func (h *Histogram) PercentileDuration(p float64) time.Duration {
	return time.Duration(h.Percentile(p))
}

// Merge adds all samples from other into h. The histograms must have been
// created with the same range.
func (h *Histogram) Merge(other *Histogram) error {
	if other == nil {
		return nil
	}
	if len(h.counts) != len(other.counts) || h.minValue != other.minValue || h.maxValue != other.maxValue {
		return fmt.Errorf("stats: cannot merge histograms with different ranges ([%d,%d] vs [%d,%d])",
			h.minValue, h.maxValue, other.minValue, other.maxValue)
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.saturated += other.saturated
	h.sum += other.sum
	if other.total > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
	return nil
}

// Reset clears all recorded samples.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.saturated = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = math.MinInt64
}

// NumBuckets returns the number of buckets, exposed for tests that check
// the logarithmic-space-overhead property.
func (h *Histogram) NumBuckets() int { return len(h.counts) }

// CDFPoint is a single point of a cumulative distribution function.
type CDFPoint struct {
	Value      time.Duration // latency value
	Cumulative float64       // fraction of samples <= Value, in (0, 1]
}

// CDF returns the cumulative distribution of recorded samples, one point per
// non-empty bucket.
func (h *Histogram) CDF() []CDFPoint {
	if h.total == 0 {
		return nil
	}
	var pts []CDFPoint
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		v := h.bucketValue(i)
		if v > h.max {
			v = h.max
		}
		pts = append(pts, CDFPoint{
			Value:      time.Duration(v),
			Cumulative: float64(cum) / float64(h.total),
		})
	}
	return pts
}

// Quantiles returns the values at each of the requested percentiles.
func (h *Histogram) Quantiles(ps []float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	for i, p := range ps {
		out[i] = h.PercentileDuration(p)
	}
	return out
}

// SampleCDF computes a CDF directly from raw samples (used for short runs
// where every sample is retained, per Sec. IV-C).
func SampleCDF(samples []time.Duration) []CDFPoint {
	if len(samples) == 0 {
		return nil
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	SortDurations(sorted)
	return CDFFromSorted(sorted)
}

// CDFFromSorted computes the same CDF as SampleCDF from an already-sorted
// slice (the sort-sharing counterpart of SummaryFromSorted).
func CDFFromSorted(sorted []time.Duration) []CDFPoint {
	if len(sorted) == 0 {
		return nil
	}
	pts := make([]CDFPoint, 0, len(sorted))
	n := float64(len(sorted))
	for i, v := range sorted {
		// Collapse equal adjacent values into one point.
		if i+1 < len(sorted) && sorted[i+1] == v {
			continue
		}
		pts = append(pts, CDFPoint{
			Value:      v,
			Cumulative: float64(i+1) / n,
		})
	}
	return pts
}
