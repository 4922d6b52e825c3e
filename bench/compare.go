package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Verdicts of one (workload, metric) row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges b against a for a metric with the given direction and
// bound. delta is the change as a share of a, positive when b is worse.
// spread is the larger of the two sides' own run-to-run spreads (0 when a
// side holds a single value): where it exceeds the bound the two sides
// cannot be told apart, and the row is unresolved, not unchanged.
func verdict(a, b float64, better string, bound, spread float64) (delta float64, v string) {
	if a == 0 {
		if b == 0 {
			return 0, verdictSame
		}
		return 0, verdictUnresolved
	}
	delta = (b - a) / a
	if better == "higher" {
		delta = -delta
	}
	switch {
	case spread > bound:
		return delta, verdictUnresolved
	case delta > bound:
		return delta, verdictWorse
	case delta < -bound:
		return delta, verdictBetter
	}
	return delta, verdictSame
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files and returns the process's exit code: non-zero on any worse
// row, on any rise in the share of failed operations, or when the files
// cannot be compared at all.
func compareFiles(spec *Spec, pathA, pathB string, w io.Writer) int {
	a, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	if a.Manifest.Schema != b.Manifest.Schema {
		fmt.Fprintf(w, "bench: schema versions differ (%d and %d): the numbers do not mean the same thing\n", a.Manifest.Schema, b.Manifest.Schema)
		return 2
	}
	fmt.Fprintf(w, "A: %s  rev %s  seed %d  %s\nB: %s  rev %s  seed %d  %s\n",
		pathA, a.Manifest.GitRev, a.Manifest.Seed, a.Manifest.CPUModel,
		pathB, b.Manifest.GitRev, b.Manifest.Seed, b.Manifest.CPUModel)

	bad := false
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA\tB\tdelta\tbound\tspread\tverdict")
	for _, wa := range a.Workloads {
		var wb *WorkloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Workload == wa.Workload {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\t-\tmissing in B\n", wa.Workload)
			bad = true
			continue
		}
		for _, ma := range wa.EndToEnd {
			m, ok := spec.lookup(ma.Name)
			if !ok {
				continue
			}
			mb := findMetric(wb.EndToEnd, ma.Name)
			if mb == nil {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t-\t-\tmissing in B\n", wa.Workload, ma.Name, m.Unit)
				bad = true
				continue
			}
			va, vb := median(ma.Values), median(mb.Values)
			spread := max(quartileSpread(ma.Values), quartileSpread(mb.Values))
			delta, v := verdict(va, vb, m.Better, m.Bound, spread)
			if v == verdictWorse {
				bad = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%.1f%%\t%s\n",
				wa.Workload, ma.Name, m.Unit, va, vb, 100*delta, 100*m.Bound, 100*spread, v)
		}
		// fail_frac: failed over attempted may never rise.
		fa, fb := failFrac(wa), failFrac(*wb)
		v := verdictSame
		if fb > fa {
			v, bad = verdictWorse, true
		}
		fmt.Fprintf(tw, "%s\tfail_frac\t-\t%.6g\t%.6g\t-\t0%%\t-\t%s\n", wa.Workload, fa, fb, v)
	}
	tw.Flush()
	if bad {
		return 1
	}
	return 0
}

func failFrac(w WorkloadResult) float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}
