package load

import (
	"math"
	"strings"
	"testing"
	"time"

	"tailbench/internal/workload"
)

// TestConstantMatchesLegacyShaper pins the compatibility contract: the
// constant shape's schedule must be bit-identical to the legacy scalar-QPS
// shaper (cumulative ExponentialGen gaps at the same seed), so RunSpec{QPS}
// behaves exactly as before the LoadShape redesign.
func TestConstantMatchesLegacyShaper(t *testing.T) {
	const qps, seed, n = 1234.5, 42, 2000
	got := Schedule(Constant(qps), n, seed)
	gen := workload.NewExponentialGen(qps, seed)
	var cum time.Duration
	for i := 0; i < n; i++ {
		cum += gen.Next()
		if got[i] != cum {
			t.Fatalf("arrival %d = %v, legacy shaper = %v", i, got[i], cum)
		}
	}
	// A scaled constant keeps the fast path.
	if !IsConstant(Scaled(Constant(qps), 0.25)) {
		t.Fatalf("scaled constant must remain constant")
	}
}

func TestScheduleSaturationAndEdges(t *testing.T) {
	for _, s := range []Shape{Constant(0), Trace(time.Second, []float64{0, 0}), nil} {
		offsets := Schedule(s, 10, 1)
		for i, o := range offsets {
			if o != 0 {
				t.Fatalf("saturation schedule offset %d = %v, want 0", i, o)
			}
		}
	}
	if got := Schedule(Diurnal(100, 50, time.Second), 0, 1); len(got) != 0 {
		t.Fatalf("empty schedule should stay empty")
	}
}

func TestScheduleNonDecreasing(t *testing.T) {
	shapes := []Shape{
		Diurnal(500, 300, 10*time.Second),
		Ramp(100, 1000, 5*time.Second),
		Spike(500, 1500, 2*time.Second, time.Second),
		Burst(100, 2000, time.Second, 500*time.Millisecond),
		Trace(time.Second, []float64{100, 900, 100}),
	}
	for _, s := range shapes {
		offsets := Schedule(s, 3000, 7)
		for i := 1; i < len(offsets); i++ {
			if offsets[i] < offsets[i-1] {
				t.Fatalf("%s: offsets decrease at %d", s.Name(), i)
			}
		}
	}
}

// TestThinningMatchesRateIntegral is the property test for the thinning
// sampler: for every built-in shape, the number of generated arrivals in
// each time bin must match the integral of Rate over that bin within
// statistical tolerance, at a fixed seed. Tolerance is 5 standard deviations
// of the Poisson bin count plus slack for small bins, so the test is
// deterministic and tight enough to catch a mis-scaled acceptance step.
func TestThinningMatchesRateIntegral(t *testing.T) {
	const n, seed = 30000, 9
	shapes := []Shape{
		Constant(2000),
		Diurnal(2000, 1200, 2*time.Second),
		Ramp(500, 4000, 5*time.Second),
		Spike(1500, 4500, 2*time.Second, 2*time.Second),
		Burst(400, 4000, time.Second, time.Second),
		Trace(500*time.Millisecond, []float64{500, 3000, 6000, 3000, 500, 2000}),
		Scaled(Diurnal(4000, 2400, 2*time.Second), 0.5),
	}
	for _, s := range shapes {
		offsets := Schedule(s, n, seed)
		last := offsets[n-1]
		const bins = 20
		width := last / bins
		if width <= 0 {
			t.Fatalf("%s: degenerate schedule span %v", s.Name(), last)
		}
		counts := make([]int, bins)
		for _, o := range offsets {
			b := int(o / width)
			if b >= bins {
				b = bins - 1
			}
			counts[b]++
		}
		for b := 0; b < bins; b++ {
			from, to := time.Duration(b)*width, time.Duration(b+1)*width
			expected := MeanRate(s, from, to) * width.Seconds()
			tol := 5*math.Sqrt(expected+1) + 5
			if diff := math.Abs(float64(counts[b]) - expected); diff > tol {
				t.Errorf("%s: bin %d [%v,%v): got %d arrivals, want %.1f ± %.1f",
					s.Name(), b, from, to, counts[b], expected, tol)
			}
		}
	}
}

func TestHorizon(t *testing.T) {
	// Constant: exact.
	if got, want := Horizon(Constant(1000), 5000), 5*time.Second; got != want {
		t.Fatalf("constant horizon = %v, want %v", got, want)
	}
	// Time-varying: integral of the spike profile. base 1000 for 2s (2000
	// arrivals), peak 3000 for 1s (3000 arrivals) -> 5000 arrivals by t=3s.
	got := Horizon(Spike(1000, 3000, 2*time.Second, time.Second), 5000)
	if got < 2900*time.Millisecond || got > 3100*time.Millisecond {
		t.Fatalf("spike horizon = %v, want ~3s", got)
	}
	if Horizon(Constant(0), 100) != 0 {
		t.Fatalf("saturation horizon must be 0")
	}
}

func TestMeanRate(t *testing.T) {
	if got := MeanRate(Constant(250), 0, time.Second); got != 250 {
		t.Fatalf("constant mean rate = %v", got)
	}
	// Spike at peak over exactly the excursion window.
	s := Spike(500, 1500, 2*time.Second, 2*time.Second)
	if got := MeanRate(s, 2*time.Second, 4*time.Second); math.Abs(got-1500) > 1 {
		t.Fatalf("spike window mean rate = %v, want 1500", got)
	}
	if got := MeanRate(s, 0, 2*time.Second); math.Abs(got-500) > 1 {
		t.Fatalf("pre-spike mean rate = %v, want 500", got)
	}
	// A full diurnal period averages to the base rate.
	d := Diurnal(800, 400, 4*time.Second)
	if got := MeanRate(d, 0, 4*time.Second); math.Abs(got-800) > 8 {
		t.Fatalf("diurnal period mean rate = %v, want ~800", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	specs := []string{
		"constant:2000",
		"diurnal:500,300,10s",
		"ramp:100,1000,30s",
		"spike:500,1500,5s,2s",
		"spike:500,1500,0s,2s",
		"burst:100,2000,2s,500ms",
		"burst:100,2000,0s,500ms",
		"burst:100,2000,2s,0s",
		"trace:1s,100,500,900,500,100",
	}
	for _, spec := range specs {
		s, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if s.Spec() != spec {
			t.Errorf("Parse(%q).Spec() = %q, want round-trip", spec, s.Spec())
		}
		again, err := Parse(s.Spec())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", s.Spec(), err)
		}
		// The reparsed shape must describe the same rate profile.
		for _, at := range []time.Duration{0, time.Second, 3 * time.Second, 7 * time.Second} {
			if a, b := s.Rate(at), again.Rate(at); math.Abs(a-b) > 1e-9 {
				t.Errorf("%q: rate mismatch at %v: %v vs %v", spec, at, a, b)
			}
		}
	}
}

// TestConstructorSpecsReparse pins the self-description contract from the
// constructor side: every shape a constructor can produce (including
// degenerate parameters the constructors normalize) emits a Spec that Parse
// accepts, so a saved result's ShapeSpec can always be replayed.
func TestConstructorSpecsReparse(t *testing.T) {
	shapes := []Shape{
		Constant(2000),
		Diurnal(500, 300, 10*time.Second),
		Diurnal(500, 300, 0), // degrades to constant
		Ramp(100, 1000, 30*time.Second),
		Ramp(100, 1000, 0),
		Spike(500, 1500, 0, 2*time.Second), // zero start
		Spike(500, 1500, time.Second, 0),   // degrades to constant
		Burst(100, 2000, 0, 500*time.Millisecond),
		Burst(100, 2000, 500*time.Millisecond, 0),
		Trace(time.Second, []float64{100}),
		Scaled(Spike(1000, 3000, 0, time.Second), 0.5),
	}
	for _, s := range shapes {
		if _, err := Parse(s.Spec()); err != nil {
			t.Errorf("Parse(%q): %v", s.Spec(), err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"unknown:1",
		"constant:",
		"constant:-5",
		"diurnal:500,300",
		"diurnal:500,300,0s",
		"spike:500,1500,5s",
		"spike:500,1500,5s,0s",
		"burst:1,2,0s,0s",
		"trace:1s",
		"trace:0s,100",
		"ramp:100,abc,30s",
		"constant:NaN",
		"constant:Inf",
		"spike:1,+Inf,0s,1s",
		"trace:1s,NaN,2",
		"diurnal:1e308,1e308,4ms",
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) should fail", spec)
		}
	}
}

// FuzzParse checks the shape grammar on its own: no panic; an accepted spec
// re-parses from its Spec() to the same Spec(); and its rate is finite and
// >= 0 wherever it is read. Inputs naming a @file are skipped so the fuzzer
// never opens files. Run with
//
//	go test ./internal/load -run '^$' -fuzz FuzzParse -fuzztime 30s
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"constant:2000",
		"diurnal:500,300,10s",
		"ramp:100,1000,30s",
		"spike:500,1500,5s,2s",
		"burst:100,2000,2s,500ms",
		"trace:1s,100,500,900,500,100",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if strings.Contains(spec, "@") {
			t.Skip("names a file")
		}
		s, err := Parse(spec)
		if err != nil {
			return
		}
		again, err := Parse(s.Spec())
		if err != nil {
			t.Fatalf("Parse(%q).Spec() = %q does not re-parse: %v", spec, s.Spec(), err)
		}
		if again.Spec() != s.Spec() {
			t.Errorf("Parse(%q): Spec %q re-parses to %q", spec, s.Spec(), again.Spec())
		}
		for _, at := range []time.Duration{0, time.Millisecond, time.Second, time.Minute} {
			if r := s.Rate(at); math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
				t.Errorf("Parse(%q).Rate(%v) = %v", spec, at, r)
			}
		}
	})
}

func TestDegenerateZeroTailTerminates(t *testing.T) {
	// A trace ending at rate 0 forever cannot supply arrivals beyond its
	// active region; Schedule must still terminate and stay non-decreasing.
	s := Trace(100*time.Millisecond, []float64{5000, 0})
	offsets := Schedule(s, 2000, 3)
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			t.Fatalf("offsets decrease at %d", i)
		}
	}
}
