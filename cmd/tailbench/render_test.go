package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tailbench/sweep"
)

// TestDecodeResult feeds report -input's classifier one valid document of
// each result kind (the root package's schema fixtures, the same files CI
// renders with report -input) and the inputs that are JSON but not results:
// every field of a result is optional to encoding/json, so {} and a grid
// -jsonl row used to render as an all-zero single-server run and exit 0.
func TestDecodeResult(t *testing.T) {
	fixture := func(name string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "schema", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	gridRow, err := json.Marshal(sweep.SimReport{Cell: 3, Seed: 7, Policy: "leastq", Shape: "constant", Requests: 400, Replicas: 4})
	if err != nil {
		t.Fatal(err)
	}
	pipeline := fixture("pipeline.full.json")
	cases := []struct {
		name    string
		data    []byte
		want    string // the decoded document's type
		wantErr string // or a fragment of the expected error
	}{
		{name: "single", data: fixture("result.full.json"), want: "*tailbench.Result"},
		{name: "cluster", data: fixture("cluster.full.json"), want: "*tailbench.ClusterResult"},
		{name: "pipeline", data: pipeline, want: "*tailbench.PipelineResult"},
		{name: "empty object", data: []byte(`{}`), wantErr: "not a tailbench result"},
		{name: "zero result", data: fixture("result.zero.json"), wantErr: "not a tailbench result"},
		{name: "array", data: []byte(`[]`), wantErr: "parsing result"},
		{name: "grid row", data: gridRow, wantErr: "not a tailbench result"},
		{name: "truncated", data: pipeline[:len(pipeline)/2], wantErr: "parsing result"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc, err := decodeResult(tc.data)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("decodeResult = %T, %v; want an error containing %q", doc, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%T", doc); got != tc.want {
				t.Errorf("decoded as %s, want %s", got, tc.want)
			}
		})
	}
}

// TestReportFromFileNamesTheFile checks the CLI error carries the path.
func TestReportFromFileNamesTheFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.json")
	if err := os.WriteFile(path, []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := reportFromFile(path); err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("reportFromFile({}) = %v, want an error naming %s", err, path)
	}
}
