// Command bench is the repository's benchmark: seven workloads that measure
// the live harness's own floor, the virtual-time engines and the grid and
// planner, end to end and layer by layer, from outside the packages they
// call. BENCHMARK.json at the checkout root names the workloads and metrics;
// README.md in this directory says what each one means.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one workload, in-process
//	bench -seed N [-trace 1] [-sets K] [-out FILE]    every workload, each in a child process
//	bench -compare A.json B.json                      verdict per (workload, metric)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// quickSeconds is the size of a -quick run and of the package's own test: a
// twenty-fifth of the reference run, enough to exercise every path.
const quickSeconds = 0.4

func main() {
	var (
		workload = flag.String("workload", "", "run this workload in-process (default: every workload, each in a child process)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
		traced   = flag.Int("trace", 0, "1: the traced run, which reports the layer metrics and writes bench/out/<workload>.trace.json")
		out      = flag.String("out", "", "write the results and the run manifest to this file")
		sets     = flag.Int("sets", 1, "with no -workload: run the whole suite this many times, keeping every value")
		quick    = flag.Bool("quick", false, "run at 1/25 size (a smoke test, not a measurement)")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	)
	flag.Parse()

	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		os.Exit(compareFiles(spec, flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *quick {
		*seconds = quickSeconds
	}
	file := &ResultFile{Manifest: newManifest(*seed, *seconds)}

	if *workload != "" {
		if !spec.hasWorkload(*workload) {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		res := runOne(spec, *workload, *seed, *seconds, *traced == 1, os.Stdout)
		file.Workloads = []WorkloadResult{res}
		if *out != "" {
			if err := file.write(*out); err != nil {
				fatal(err)
			}
		}
		// The driver reads the last line of standard output.
		fmt.Println(driverLine(res, *traced == 1))
		return
	}

	ok := true
	for set := 0; set < *sets; set++ {
		for i, w := range spec.Workloads {
			modes := []bool{false}
			if *traced == 1 {
				modes = append(modes, true)
			}
			for _, mode := range modes {
				res, err := runChild(spec, w.Name, *seed, *seconds, mode)
				if err != nil {
					fatal(err)
				}
				ok = ok && res.Correct
				if set == 0 && !mode {
					file.Workloads = append(file.Workloads, res)
				} else {
					file.Workloads[i].merge(res)
				}
			}
		}
	}
	if *out != "" {
		if err := file.write(*out); err != nil {
			fatal(err)
		}
	}
	if !ok {
		fatal(fmt.Errorf("at least one workload reported wrong outputs"))
	}
}

// runOne runs a workload in this process and returns what it reported.
func runOne(spec *Spec, workload string, seed int64, seconds float64, traced bool, log io.Writer) WorkloadResult {
	r := newRun(spec, workload, seed, seconds, traced, log)
	end := r.spans.begin(workload)
	if w, ok := liveWorkloads[workload]; ok {
		w.run(r)
	} else if w, ok := simWorkloads[workload]; ok {
		w.run(r)
	} else {
		runGridPlan(r)
	}
	end()
	if traced {
		processMetrics(r)
		path, err := r.spans.write(spec.root, r.program)
		if err != nil {
			r.failf("writing the span file: %v", err)
		}
		r.note("trace_file", path)
	}
	return r.finish()
}

// runChild re-executes this program for one workload, so that one workload's
// heap and goroutines never colour the next, and reads back its result file.
func runChild(spec *Spec, workload string, seed int64, seconds float64, traced bool) (WorkloadResult, error) {
	self, err := os.Executable()
	if err != nil {
		return WorkloadResult{}, err
	}
	dir := filepath.Join(spec.root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return WorkloadResult{}, err
	}
	tmp := filepath.Join(dir, workload+".result.json")
	mode := "0"
	if traced {
		mode = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", mode, "-out", tmp)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return WorkloadResult{}, fmt.Errorf("workload %s: %w", workload, err)
	}
	f, err := readResultFile(tmp)
	if err != nil {
		return WorkloadResult{}, err
	}
	return f.Workloads[0], os.Remove(tmp)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
