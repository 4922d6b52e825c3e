package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestQuickRun runs every workload at -quick size, untraced and traced, and
// checks the printed output against BENCHMARK.json: every end-to-end metric
// once per workload, every layer metric by at least one workload and never
// twice in a run, every value finite and printed with its declared unit, and
// the driver's line holding exactly the declared names.
func TestQuickRun(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	layerSeen := map[string]bool{}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			var log bytes.Buffer
			res := runOne(spec, w.Name, 3, quickSeconds, traced, &log)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			printed := map[string]int{}
			for _, line := range strings.Split(log.String(), "\n") {
				f := strings.Fields(line)
				if len(f) < 4 || f[0] != w.Name {
					continue
				}
				if m, ok := spec.lookup(f[1]); ok {
					printed[f[1]]++
					if f[3] != m.Unit {
						t.Errorf("%s: %s printed with unit %q, declared %q", w.Name, f[1], f[3], m.Unit)
					}
				}
			}
			for name, n := range printed {
				if n != 1 {
					t.Errorf("%s traced=%v: %s printed %d times", w.Name, traced, name, n)
				}
				if traced {
					layerSeen[name] = true
				}
			}
			var line struct {
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(driverLine(res, traced)), &line); err != nil {
				t.Fatal(err)
			}
			want := spec.metrics(traced)
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: driver line has %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.Name, traced, m.Name, got, ok)
				}
				if !traced && (printed[m.Name] != 1 || got.Value <= 0) {
					t.Errorf("%s: end-to-end metric %s printed %d times with value %v", w.Name, m.Name, printed[m.Name], got.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(spec.root, "bench", "out", w.Name+".trace.json")); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
			}
		}
	}
	for _, m := range spec.PerLayer {
		if !layerSeen[m.Name] {
			t.Errorf("layer metric %s is declared but no workload reports it", m.Name)
		}
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		a, b          float64
		better        string
		bound, spread float64
		want          string
	}{
		{100, 104, "lower", 0.10, 0, verdictSame},
		{100, 115, "lower", 0.10, 0, verdictWorse},
		{100, 80, "lower", 0.10, 0, verdictBetter},
		{100, 115, "higher", 0.10, 0, verdictBetter},
		{100, 85, "higher", 0.10, 0, verdictWorse},
		{100, 85, "higher", 0.10, 0.2, verdictUnresolved},
		{100, 101, "lower", 0.10, 0.2, verdictUnresolved},
		{0, 0, "lower", 0.10, 0, verdictSame},
	} {
		if _, got := verdict(c.a, c.b, c.better, c.bound, c.spread); got != c.want {
			t.Errorf("verdict(%v -> %v, %s, bound %v, spread %v) = %s, want %s", c.a, c.b, c.better, c.bound, c.spread, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, schema int, rate float64, failed int64) string {
		f := ResultFile{Manifest: Manifest{Schema: schema}, Workloads: []WorkloadResult{{
			Workload: "sim-cluster", Correct: true, Attempted: 10, Failed: failed,
			EndToEnd: []Metric{{Name: "rate_per_s", Unit: "1/s", Values: []float64{rate}}},
		}}}
		path := filepath.Join(dir, name)
		if err := f.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", schemaVersion, 1000, 0)
	for _, c := range []struct {
		name string
		path string
		want int
	}{
		{"same", write("same.json", schemaVersion, 1020, 0), 0},
		{"worse", write("worse.json", schemaVersion, 500, 0), 1},
		{"fail_frac up", write("fail.json", schemaVersion, 1000, 1), 1},
		{"schema mismatch", write("schema.json", schemaVersion+1, 1000, 0), 2},
	} {
		var out bytes.Buffer
		if got := compareFiles(spec, base, c.path, &out); got != c.want {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, got, c.want, out.String())
		}
	}
}

func TestLateness(t *testing.T) {
	usd := func(v int) time.Duration { return time.Duration(v) * time.Microsecond }
	queue := []time.Duration{usd(10), usd(0), usd(5), usd(0)}
	service := []time.Duration{usd(100), usd(100), usd(100), usd(100)}
	sojourn := []time.Duration{usd(160), usd(100), usd(405), usd(90)}
	late, frac := lateness(queue, service, sojourn)
	want := []time.Duration{0, 0, usd(50), usd(300)}
	if len(late) != len(want) {
		t.Fatalf("lateness = %v", late)
	}
	for i := range want {
		if late[i] != want[i] {
			t.Errorf("sorted lateness[%d] = %v, want %v", i, late[i], want[i])
		}
	}
	if frac != 0.25 {
		t.Errorf("late fraction = %v, want 0.25 (one of four later than 100us)", frac)
	}
	if late, _ := lateness(queue[:2], service, sojourn); late != nil {
		t.Errorf("misaligned samples must give no lateness, got %v", late)
	}
}

func TestMD1Wait(t *testing.T) {
	// rho = 0.5, S = 100us: rho*S / (2*(1-rho)) = 50us.
	if got := md1Wait(5000, 100*time.Microsecond); got != 50*time.Microsecond {
		t.Errorf("md1Wait(5000/s, 100us) = %v, want 50us", got)
	}
	if got := md1Wait(8000, 100*time.Microsecond); got != 200*time.Microsecond {
		t.Errorf("md1Wait(8000/s, 100us) = %v, want 200us", got)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25]; median 5.5.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quartileSpread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want 1", got)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("one value has spread %v, want 0", got)
	}
}
