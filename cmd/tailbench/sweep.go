package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"tailbench"
	"tailbench/sweep"
)

// runSweep implements the sweep subcommand: it regenerates the data series
// behind the paper's tables and figures. Output is tab-separated so it can be
// piped into a plotting tool.
func runSweep(args []string) {
	fs := newFlagSet("sweep")
	var (
		experiment = fs.String("experiment", "table1", "one of: table1, fig2, fig3, fig4, fig5, fig6, fig7, fig8, omission")
		appName    = fs.String("app", "", "application (default: the apps the paper uses for that figure)")
		full       = fs.Bool("full", false, "use full-fidelity options instead of quick ones")
	)
	fs.Parse(args)

	opts := sweep.Quick()
	if *full {
		opts = sweep.Full()
	}
	apps := tailbench.Apps()
	if *appName != "" {
		apps = []string{*appName}
	}

	var err error
	switch strings.ToLower(*experiment) {
	case "table1":
		err = runTableI(apps, opts)
	case "fig2":
		err = runFig2(apps, opts)
	case "fig3":
		err = runLoadCurves(apps, 1, opts)
	case "fig4":
		err = runThreadScaling(pick(*appName, "silo", "masstree", "xapian", "moses"), opts)
	case "fig5":
		err = runConfigComparison(apps, 1, opts)
	case "fig6":
		err = runConfigComparison(pick(*appName, "shore", "img-dnn"), 1, opts)
	case "fig7":
		err = runConfigComparison(pick(*appName, "specjbb", "masstree", "xapian", "img-dnn"), 4, opts)
	case "fig8":
		err = runCaseStudy(pick(*appName, "moses", "silo"), opts)
	case "omission":
		err = runOmission(apps, opts)
	default:
		err = fmt.Errorf("unknown experiment %q", *experiment)
	}
	if err != nil {
		fatal(1, err)
	}
}

// pick returns override if set, otherwise the paper's default app list.
func pick(override string, defaults ...string) []string {
	if override != "" {
		return []string{override}
	}
	return defaults
}

func runTableI(apps []string, opts sweep.Options) error {
	rows, err := sweep.TableI(apps, opts)
	if err != nil {
		return err
	}
	fmt.Println("app\tdomain\tmean_service\tp95@20%\tp95@50%\tp95@70%\tsaturation_qps")
	for _, r := range rows {
		fmt.Printf("%s\t%s\t%v\t%v\t%v\t%v\t%.0f\n",
			r.App, r.Domain, r.MeanSvc.Round(time.Microsecond),
			r.P95At20.Round(time.Microsecond), r.P95At50.Round(time.Microsecond),
			r.P95At70.Round(time.Microsecond), r.Saturation)
	}
	return nil
}

func runFig2(apps []string, opts sweep.Options) error {
	for _, app := range apps {
		cal, err := sweep.Calibrate(app, opts)
		if err != nil {
			return err
		}
		fmt.Printf("# %s service-time CDF (n=%d)\n", app, len(cal.ServiceSamples))
		fmt.Println("service_time_us\tcumulative_probability")
		for _, p := range cal.ServiceCDF {
			fmt.Printf("%.1f\t%.4f\n", float64(p.Value)/float64(time.Microsecond), p.Cumulative)
		}
	}
	return nil
}

func runLoadCurves(apps []string, threads int, opts sweep.Options) error {
	fmt.Println("app\tthreads\tload\tqps\tmean_us\tp95_us\tp99_us")
	for _, app := range apps {
		c, err := sweep.LatencyVsLoad(app, tailbench.ModeIntegrated, threads, opts)
		if err != nil {
			return err
		}
		for _, p := range c.Points {
			fmt.Printf("%s\t%d\t%.2f\t%.1f\t%.1f\t%.1f\t%.1f\n",
				c.App, c.Threads, p.Load, p.QPS, us(p.Mean), us(p.P95), us(p.P99))
		}
	}
	return nil
}

func runThreadScaling(apps []string, opts sweep.Options) error {
	fmt.Println("app\tthreads\tload\tqps_per_thread\tp95_us")
	for _, app := range apps {
		curves, err := sweep.ThreadScaling(app, []int{1, 2, 4}, opts)
		if err != nil {
			return err
		}
		for _, c := range curves {
			for _, p := range c.Points {
				fmt.Printf("%s\t%d\t%.2f\t%.1f\t%.1f\n", c.App, c.Threads, p.Load,
					p.QPS/float64(c.Threads), us(p.P95))
			}
		}
	}
	return nil
}

func runConfigComparison(apps []string, threads int, opts sweep.Options) error {
	fmt.Println("app\tmode\tthreads\tload\tqps\tp95_us")
	for _, app := range apps {
		curves, err := sweep.ConfigComparison(app, threads, opts)
		if err != nil {
			return err
		}
		for _, c := range curves {
			for _, p := range c.Points {
				fmt.Printf("%s\t%s\t%d\t%.2f\t%.1f\t%.1f\n", c.App, c.Mode, c.Threads, p.Load, p.QPS, us(p.P95))
			}
		}
	}
	return nil
}

func runCaseStudy(apps []string, opts sweep.Options) error {
	fmt.Println("app\tseries\tload\tqps_per_thread\tnormalized_p95")
	for _, app := range apps {
		cs, err := sweep.CaseStudy(app, opts)
		if err != nil {
			return err
		}
		writeCaseStudy(os.Stdout, cs)
	}
	return nil
}

// writeCaseStudy writes one application's Fig. 8 rows: its four series in a
// fixed order, each point's p95 normalized to the low-load baseline.
func writeCaseStudy(w io.Writer, cs *sweep.CaseStudyResult) {
	base := float64(cs.BaselineP95)
	if base == 0 {
		base = 1
	}
	series := []struct {
		name  string
		curve *sweep.LoadCurve
	}{{"M/G/1", cs.MG1}, {"M/G/4", cs.MG4}, {"IdealMem-1thr", cs.Ideal1}, {"IdealMem-4thr", cs.Ideal4}}
	for _, s := range series {
		for _, p := range s.curve.Points {
			fmt.Fprintf(w, "%s\t%s\t%.2f\t%.1f\t%.2f\n", cs.App, s.name, p.Load,
				p.QPS/float64(s.curve.Threads), float64(p.P95)/base)
		}
	}
}

func runOmission(apps []string, opts sweep.Options) error {
	fmt.Println("app\tload\topen_loop_p95_us\tclosed_loop_p95_us\tunderestimate_factor")
	for _, app := range apps {
		res, err := sweep.CoordinatedOmission(app, 0.9, opts)
		if err != nil {
			return err
		}
		fmt.Printf("%s\t%.2f\t%.1f\t%.1f\t%.2fx\n", app, res.Load, us(res.OpenLoopP95), us(res.ClosedLoopP95), res.UnderestimateFactor)
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
