package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"tailbench/sweep"
)

// TestWriteCaseStudyOrder pins the Fig. 8 row order: the four series used
// to come from ranging over a map, so the rows shuffled from run to run.
func TestWriteCaseStudyOrder(t *testing.T) {
	curve := func(threads int) *sweep.LoadCurve {
		return &sweep.LoadCurve{App: "moses", Threads: threads, Points: []sweep.LoadPoint{
			{Load: 0.2, QPS: 100, P95: 2 * time.Millisecond},
			{Load: 0.8, QPS: 400, P95: 6 * time.Millisecond},
		}}
	}
	cs := &sweep.CaseStudyResult{
		App: "moses", BaselineP95: time.Millisecond,
		MG1: curve(1), MG4: curve(4), Ideal1: curve(1), Ideal4: curve(4),
	}
	var first, second bytes.Buffer
	writeCaseStudy(&first, cs)
	writeCaseStudy(&second, cs)
	if first.String() != second.String() {
		t.Fatalf("two renders differ:\n%s\n---\n%s", first.String(), second.String())
	}
	var series []string
	for _, line := range strings.Split(strings.TrimSpace(first.String()), "\n") {
		series = append(series, strings.Split(line, "\t")[1])
	}
	want := []string{"M/G/1", "M/G/1", "M/G/4", "M/G/4", "IdealMem-1thr", "IdealMem-1thr", "IdealMem-4thr", "IdealMem-4thr"}
	if strings.Join(series, ",") != strings.Join(want, ",") {
		t.Errorf("series order %v, want %v", series, want)
	}
	if !strings.HasPrefix(first.String(), "moses\tM/G/1\t0.20\t100.0\t2.00\n") {
		t.Errorf("first row %q", strings.SplitN(first.String(), "\n", 2)[0])
	}
}
