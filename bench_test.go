package tailbench_test

// Benchmark harness: one benchmark family per table/figure of the paper's
// evaluation. Each benchmark regenerates the corresponding data series at a
// reduced ("quick") fidelity so the whole suite completes in minutes; pass
// -full to `tailbench sweep` for full-fidelity reproductions. The
// benchmarks report the headline latency metric of the figure (usually the
// p95 sojourn latency in microseconds) through b.ReportMetric, so
// `go test -bench . -benchmem` output doubles as a results table.
//
// EXPERIMENTS.md records the paper-vs-measured comparison for every entry.

import (
	"testing"
	"time"

	"tailbench"
	"tailbench/sweep"
)

// benchOptions returns sweep options sized for benchmarking: small datasets
// and request counts, fixed seed.
func benchOptions() sweep.Options {
	return sweep.Options{
		Scale:               0.05,
		Requests:            300,
		Warmup:              60,
		CalibrationRequests: 100,
		Loads:               []float64{0.2, 0.5, 0.7},
		Seed:                1,
	}
}

// appScale returns a per-application dataset scale that keeps benchmark
// iterations short: the compute-heavy applications use smaller datasets.
func appScale(app string) float64 {
	switch app {
	case "sphinx":
		return 0.05
	case "moses", "img-dnn", "xapian":
		return 0.05
	case "shore", "specjbb":
		return 0.5
	default:
		return 0.05
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// BenchmarkTableI regenerates Table I (p95 latency at 20/50/70% load) for
// two representative applications per iteration; run `tailbench sweep
// -experiment table1` for all eight.
func BenchmarkTableI(b *testing.B) {
	for _, app := range []string{"masstree", "specjbb"} {
		b.Run(app, func(b *testing.B) {
			opts := benchOptions()
			opts.Scale = appScale(app)
			for i := 0; i < b.N; i++ {
				rows, err := sweep.TableI([]string{app}, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(us(rows[0].P95At70), "p95@70%_us")
			}
		})
	}
}

// BenchmarkFig2_ServiceCDF regenerates the service-time CDFs of Fig. 2: one
// sub-benchmark per application, reporting the median and p95 service time.
func BenchmarkFig2_ServiceCDF(b *testing.B) {
	reqs := map[string]int{"sphinx": 20, "shore": 60}
	for _, app := range tailbench.Apps() {
		b.Run(app, func(b *testing.B) {
			opts := benchOptions()
			opts.Scale = appScale(app)
			if n, ok := reqs[app]; ok {
				opts.CalibrationRequests = n
			}
			for i := 0; i < b.N; i++ {
				cal, err := sweep.Calibrate(app, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(us(cal.Service.P50), "service_p50_us")
				b.ReportMetric(us(cal.Service.P95), "service_p95_us")
			}
		})
	}
}

// BenchmarkFig3_LatencyVsQPS regenerates the single-threaded latency-vs-load
// curves of Fig. 3 for two representative applications (one
// millisecond-scale, one microsecond-scale).
func BenchmarkFig3_LatencyVsQPS(b *testing.B) {
	for _, app := range []string{"xapian", "masstree"} {
		b.Run(app, func(b *testing.B) {
			opts := benchOptions()
			opts.Scale = appScale(app)
			for i := 0; i < b.N; i++ {
				curve, err := sweep.LatencyVsLoad(app, tailbench.ModeIntegrated, 1, opts)
				if err != nil {
					b.Fatal(err)
				}
				last := curve.Points[len(curve.Points)-1]
				b.ReportMetric(us(last.Mean), "mean@70%_us")
				b.ReportMetric(us(last.P95), "p95@70%_us")
				b.ReportMetric(us(last.P99), "p99@70%_us")
			}
		})
	}
}

// BenchmarkFig4_ThreadScaling regenerates the thread-scaling curves of
// Fig. 4 (p95 vs per-thread load at 1, 2, and 4 threads).
func BenchmarkFig4_ThreadScaling(b *testing.B) {
	for _, app := range []string{"masstree", "silo"} {
		b.Run(app, func(b *testing.B) {
			opts := benchOptions()
			opts.Scale = appScale(app)
			opts.Loads = []float64{0.5}
			for i := 0; i < b.N; i++ {
				curves, err := sweep.ThreadScaling(app, []int{1, 2, 4}, opts)
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range curves {
					b.ReportMetric(us(c.Points[0].P95), "p95@50%_"+itoa(c.Threads)+"thr_us")
				}
			}
		})
	}
}

// BenchmarkFig5_Configs regenerates the single-threaded harness-configuration
// comparison of Fig. 5 (networked / loopback / integrated / simulated) for a
// short-request application, where the configurations differ most.
func BenchmarkFig5_Configs(b *testing.B) {
	for _, app := range []string{"specjbb", "masstree"} {
		b.Run(app, func(b *testing.B) {
			opts := benchOptions()
			opts.Scale = appScale(app)
			opts.Loads = []float64{0.5}
			for i := 0; i < b.N; i++ {
				curves, err := sweep.ConfigComparison(app, 1, opts)
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range curves {
					b.ReportMetric(us(c.Points[0].P95), "p95_"+c.Mode.String()+"_us")
				}
			}
		})
	}
}

// BenchmarkFig6_LoadNormalized regenerates Fig. 6: real (integrated) vs
// simulated latency as a function of *load* rather than QPS for the two
// applications with the largest simulation error in the paper.
func BenchmarkFig6_LoadNormalized(b *testing.B) {
	for _, app := range []string{"shore", "img-dnn"} {
		b.Run(app, func(b *testing.B) {
			opts := benchOptions()
			opts.Scale = appScale(app)
			opts.Loads = []float64{0.3, 0.7}
			for i := 0; i < b.N; i++ {
				real, err := sweep.LatencyVsLoad(app, tailbench.ModeIntegrated, 1, opts)
				if err != nil {
					b.Fatal(err)
				}
				simulated, err := sweep.LatencyVsLoad(app, tailbench.ModeSimulated, 1, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(us(real.Points[1].P95), "real_p95@70%_us")
				b.ReportMetric(us(simulated.Points[1].P95), "sim_p95@70%_us")
			}
		})
	}
}

// BenchmarkFig7_ConfigsMT regenerates the four-thread harness-configuration
// comparison of Fig. 7.
func BenchmarkFig7_ConfigsMT(b *testing.B) {
	for _, app := range []string{"masstree", "specjbb"} {
		b.Run(app, func(b *testing.B) {
			opts := benchOptions()
			opts.Scale = appScale(app)
			opts.Loads = []float64{0.5}
			for i := 0; i < b.N; i++ {
				curves, err := sweep.ConfigComparison(app, 4, opts)
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range curves {
					b.ReportMetric(us(c.Points[0].P95), "p95_"+c.Mode.String()+"_us")
				}
			}
		})
	}
}

// BenchmarkFig8_CaseStudy regenerates the Sec. VII case study: M/G/n
// queueing-model predictions vs idealized-memory simulation for moses and
// silo. The reported metric is the ratio of the 4-thread ideal-memory p95 to
// the M/G/4 prediction at the highest measured load: near 1 means memory
// contention explains the scaling loss (moses); well above 1 means
// synchronization does (silo).
func BenchmarkFig8_CaseStudy(b *testing.B) {
	for _, app := range []string{"moses", "silo"} {
		b.Run(app, func(b *testing.B) {
			opts := benchOptions()
			opts.Scale = appScale(app)
			opts.Requests = 2000
			opts.Loads = []float64{0.3, 0.7}
			for i := 0; i < b.N; i++ {
				cs, err := sweep.CaseStudy(app, opts)
				if err != nil {
					b.Fatal(err)
				}
				last := len(cs.MG4.Points) - 1
				ratio := float64(cs.Ideal4.Points[last].P95) / float64(cs.MG4.Points[last].P95)
				b.ReportMetric(ratio, "ideal4_vs_MG4_p95_ratio")
			}
		})
	}
}

// BenchmarkMethodology_CoordinatedOmission quantifies the closed-loop
// (coordinated-omission) measurement error the paper's methodology avoids
// (Sec. II-B): the factor by which a closed-loop tester underestimates p95
// latency near saturation.
func BenchmarkMethodology_CoordinatedOmission(b *testing.B) {
	for _, app := range []string{"masstree", "xapian"} {
		b.Run(app, func(b *testing.B) {
			opts := benchOptions()
			opts.Scale = appScale(app)
			for i := 0; i < b.N; i++ {
				res, err := sweep.CoordinatedOmission(app, 0.9, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.UnderestimateFactor, "open_vs_closed_p95_factor")
			}
		})
	}
}

// itoa converts small ints without pulling in strconv for one call site.
func itoa(n int) string {
	switch n {
	case 1:
		return "1"
	case 2:
		return "2"
	case 4:
		return "4"
	default:
		return "n"
	}
}
