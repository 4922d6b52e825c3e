package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// MetricSpec is one metric as BENCHMARK.json declares it. Bound is the share
// of the baseline by which an end-to-end metric may worsen before a change
// counts as a regression; layer metrics carry none.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Spec is BENCHMARK.json: the single source of workload names, metric names,
// units, directions and bounds. The program reads it at start-up, so a name
// printed here and a name declared there cannot drift apart.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`

	// root is the directory BENCHMARK.json was found in: the checkout root.
	root string
}

// loadSpec finds BENCHMARK.json in the working directory or its parent (go
// test runs in bench/, everything else at the checkout root).
func loadSpec() (*Spec, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		s := &Spec{root: dir}
		if err := json.Unmarshal(data, s); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..: run from the checkout root")
}

// metrics returns the end-to-end list for an untraced run and the layer list
// for a traced one.
func (s *Spec) metrics(traced bool) []MetricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// lookup finds a metric of either kind by name.
func (s *Spec) lookup(name string) (MetricSpec, bool) {
	for _, list := range [][]MetricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return MetricSpec{}, false
}

func (s *Spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
