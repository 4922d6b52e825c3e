package sweep

import (
	"bytes"
	"math"
	"testing"
	"time"

	"tailbench"
)

// gridTestConfig is a ≥1000-cell grid kept cheap per cell: 4 policies ×
// 2 shapes × 2 controllers × 2 fan-outs = 32 tuples × 32 reps = 1024 cells.
func gridTestConfig(t *testing.T, workers int) GridConfig {
	t.Helper()
	spike, err := tailbench.ParseLoadShape("spike:600,2400,400ms,150ms")
	if err != nil {
		t.Fatalf("ParseLoadShape: %v", err)
	}
	return GridConfig{
		Axes: GridAxes{
			Policies:    []string{"random", "roundrobin", "leastq", "jsq2"},
			Shapes:      []tailbench.LoadShape{nil, spike},
			Controllers: []string{ControllerStatic, "threshold"},
			FanOuts:     []int{1, 4},
		},
		Replicas:      2,
		ShardReplicas: 4,
		Requests:      40,
		Reps:          32,
		Seed:          42,
		Workers:       workers,
	}
}

// TestGridWorkerCountInvariant is the sweep's core determinism contract:
// the merged JSONL of a ≥1000-cell grid is byte-identical whether the
// cells ran on one worker or many, because every cell's seed derives from
// the root seed and the cell index alone.
func TestGridWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-cell grid in -short mode")
	}
	serial, err := RunGrid(gridTestConfig(t, 1))
	if err != nil {
		t.Fatalf("RunGrid(workers=1): %v", err)
	}
	if serial.Cells < 1000 {
		t.Fatalf("grid has %d cells, want >= 1000", serial.Cells)
	}
	parallel, err := RunGrid(gridTestConfig(t, 8))
	if err != nil {
		t.Fatalf("RunGrid(workers=8): %v", err)
	}

	// SimWallNs is the one report field that measures the host, not the
	// simulation; zero it on both sides before the byte comparison.
	for _, g := range []*GridResult{serial, parallel} {
		for i := range g.Reports {
			g.Reports[i].SimWallNs = 0
		}
	}

	var a, b bytes.Buffer
	if err := serial.WriteJSONL(&a); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if err := parallel.WriteJSONL(&b); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("JSONL differs between workers=1 and workers=8 (%d vs %d bytes)", a.Len(), b.Len())
	}
	var c bytes.Buffer
	if err := serial.WriteCSV(&c); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	var d bytes.Buffer
	if err := parallel.WriteCSV(&d); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if !bytes.Equal(c.Bytes(), d.Bytes()) {
		t.Fatal("CSV differs between workers=1 and workers=8")
	}
}

// TestGridEnumeration pins the cell order (tuple-major, rep-minor) and the
// per-cell seed derivation, which together make the output layout part of
// the package contract.
func TestGridEnumeration(t *testing.T) {
	cfg := GridConfig{
		Axes: GridAxes{
			Policies:    []string{"a", "b"},
			Controllers: []string{ControllerStatic},
			FanOuts:     []int{1, 2},
		},
		Reps: 2,
	}.normalize()
	cells := enumerate(cfg)
	if len(cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	seeds := map[int64]bool{}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d: Index = %d", i, c.Index)
		}
		if c.Rep != i%2 {
			t.Errorf("cell %d: Rep = %d, want %d", i, c.Rep, i%2)
		}
		if seeds[c.Seed] {
			t.Errorf("cell %d: duplicate seed %d", i, c.Seed)
		}
		seeds[c.Seed] = true
	}
	// Tuple-major order: policy varies slowest, rep fastest.
	if cells[0].Policy != "a" || cells[4].Policy != "b" {
		t.Errorf("policy order: got %q then %q", cells[0].Policy, cells[4].Policy)
	}
	if cells[0].FanOut != 1 || cells[2].FanOut != 2 {
		t.Errorf("fan-out order: got %d then %d", cells[0].FanOut, cells[2].FanOut)
	}
}

// TestGridMarginalAllocs bounds the sweep layer end to end in the style of
// the cluster engine's marginal-allocs pin: growing a cell by 10000 requests
// must not grow the allocation count by more than ~5 per 100 extra events —
// per-event cost stays amortized into the fixed, spec-sized setup, and the
// sweep layer adds no per-request allocations of its own on top of the
// engine.
func TestGridMarginalAllocs(t *testing.T) {
	base := GridConfig{
		Axes:     GridAxes{Policies: []string{"leastq"}},
		Replicas: 2,
		Seed:     5,
		Workers:  1,
	}
	run := func(requests int) float64 {
		cfg := base
		cfg.Requests = requests
		return testing.AllocsPerRun(3, func() {
			if _, err := RunGrid(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := run(2000), run(12000)
	if per := (big - small) / 10000; per > 0.05 {
		t.Fatalf("marginal allocations %.4f/request (small=%.0f big=%.0f), want <= 0.05", per, small, big)
	}
}

// TestRunCellArenaReuse pins the arena's reason to exist: consecutive
// RunCell calls on a warm arena skip the per-cell sample derivation and
// pool construction, so they allocate strictly less than arena-less calls.
// The warm path must also stay flat — re-running must not regrow anything.
// Each arm is the minimum over ten single-run AllocsPerRun passes.
// AllocsPerRun counts the whole process, so a run can pick up stray runtime
// allocations: under -race about 4 runs in 10 read 3-5 above the floor, so
// an average over several runs is rarely clean (this test used to flake at
// "234 then 236"), while the minimum of ten single runs is the floor.
func TestRunCellArenaReuse(t *testing.T) {
	cfg := GridConfig{
		Axes:     GridAxes{Policies: []string{"leastq"}, FanOuts: []int{4}},
		Replicas: 2,
		Requests: 60,
		Seed:     9,
	}
	cell := enumerate(cfg.normalize())[0]
	arena := NewCellArena(cfg)
	run := func(a *CellArena) float64 {
		least := math.Inf(1)
		for range 10 {
			least = min(least, testing.AllocsPerRun(1, func() {
				if _, err := RunCell(cfg, cell, CellLimits{}, a); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	warm1 := run(arena)
	warm2 := run(arena)
	cold := run(nil)
	if warm2 > warm1 {
		t.Errorf("warm arena allocations grew between passes: %.0f then %.0f", warm1, warm2)
	}
	if warm2 >= cold {
		t.Errorf("warm arena run allocates %.0f, arena-less %.0f — reuse saves nothing", warm2, cold)
	}
}

// TestGridControllerCells checks that elastic cells actually scale: a
// threshold-controlled cell under a spike must report a different
// provisioning ledger than its static twin.
func TestGridControllerCells(t *testing.T) {
	spike, err := tailbench.ParseLoadShape("spike:400,4000,200ms,800ms")
	if err != nil {
		t.Fatalf("ParseLoadShape: %v", err)
	}
	base := GridConfig{
		Axes: GridAxes{
			Policies:    []string{"leastq"},
			Shapes:      []tailbench.LoadShape{spike},
			Controllers: []string{ControllerStatic, "threshold"},
			FanOuts:     []int{1},
		},
		Replicas: 2,
		Requests: 600,
		Seed:     7,
		Window:   200 * time.Millisecond,
	}
	res, err := RunGrid(base)
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	if len(res.Reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(res.Reports))
	}
	static, elastic := res.Reports[0], res.Reports[1]
	if static.Controller != ControllerStatic || elastic.Controller != "threshold" {
		t.Fatalf("controller labels: %q, %q", static.Controller, elastic.Controller)
	}
	if static.PeakReplicas != base.Replicas {
		t.Errorf("static cell peaked at %d replicas, want %d", static.PeakReplicas, base.Replicas)
	}
	if elastic.PeakReplicas <= base.Replicas {
		t.Errorf("threshold cell never scaled past %d replicas under a 10x spike", elastic.PeakReplicas)
	}
	if static.PeakWindowP99 == 0 || elastic.PeakWindowP99 == 0 {
		t.Error("windowed accounting missing from reports")
	}
}
